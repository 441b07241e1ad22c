"""Run one qcadc CLI command in this fresh interpreter and time it.

Usage: python3 child.py RESULT_JSON TRACE [-- QCADC_ARGS...]

run.py records the clock just before it starts this process.  This
script records it again right after ``import qcadc`` (the end of set-up) and
when ``cli.main`` returns (the end of the command), then writes both, the
exit code, the peak RSS and, with TRACE=1, the layer spans to RESULT_JSON.
Without QCADC_ARGS it only imports qcadc: a set-up probe.
"""
import sys
import time

import qcadc
from qcadc import cli

IMPORTED = time.monotonic()

import ctypes        # noqa: E402  (after the set-up timestamp on purpose)
import glob          # noqa: E402
import json          # noqa: E402
import os            # noqa: E402
import resource      # noqa: E402
import traceback     # noqa: E402


def blas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy
    names = ("scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = int(fn())
                    break
    return found


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:] if len(sys.argv) > 3 and sys.argv[3] == "--" else []
    result = {"imported": IMPORTED, "qcadc_file": qcadc.__file__}
    if argv:
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        started = time.monotonic()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_root(cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            result["error"] = traceback.format_exc()
        done = time.monotonic()
        result.update(started=started, done=done, exit_code=code)
        if tracer is not None:
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing
    import numpy
    import scipy
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
