"""Host fingerprint stamped into every benchmark result.

Records what decides the numbers besides the code: CPUs and affinity,
the BLAS numpy loaded (vendor, version, core, thread count), numpy and
Python versions, the resolved stencil backend and every ``REPRO_*`` or
``*_NUM_THREADS`` environment variable.  The benchmark only reads these
settings; it never sets them, so a change of default shows up here.
"""

from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def _blas_call(lib, names: tuple, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_info() -> dict:
    """BLAS vendor/version from numpy's build config, plus the live
    OpenBLAS core and thread count read through ctypes (``None`` when
    the library or symbol is not there)."""
    import numpy as np

    info: dict = {"name": None, "version": None, "core": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    path = _loaded_openblas()
    if path is None:
        return info
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return info
    prefixes = ("scipy_openblas_", "openblas_")
    suffixes = ("64_", "")
    core = _blas_call(
        lib, tuple(p + "get_corename" + s for p in prefixes for s in suffixes),
        ctypes.c_char_p,
    )
    threads = _blas_call(
        lib, tuple(p + "get_num_threads" + s for p in prefixes for s in suffixes),
        ctypes.c_int,
    )
    info["core"] = core.decode() if core else None
    info["threads"] = threads
    return info


def host_fingerprint() -> dict:
    import numpy as np

    from repro.dycore.stencil import default_backend

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpus": os.cpu_count(),
        "affinity": affinity,
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "stencil_backend": default_backend(),
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_") or k.endswith("_NUM_THREADS")
        },
    }
