"""Child-process entry points of the benchmark.

    python child.py setup  MANIFEST          import xlalign and load every input
    python child.py job    MANIFEST          run the workload's CLI calls once
    python child.py info   OUT.json          versions, BLAS and cache sizes
    python child.py replay MANIFEST SPAWN OUT.json
                                             traced replay, then layer probes

Each run starts a fresh interpreter, so imports and loads are paid every
time, as they are for a user running ``xlalign``. The parent sets
``PYTHONPATH`` to the checkout's ``src`` and caps the BLAS threads.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path


def setup(manifest: dict) -> None:
    import xlalign
    from xlalign import pipeline

    if "config" in manifest:
        config = xlalign.load_config(manifest["config"])
        for lang, paths in sorted(manifest["embedding_files"].items()):
            for path in paths:
                xlalign.load_embeddings(path, lang=lang)
        xlalign.load_language_table(config.languages)
        for directory in config.corpus:
            xlalign.load_corpus(directory)
    else:
        xlalign.load_language_table(manifest["language_table"])
        for directory in manifest["corpus_dirs"]:
            xlalign.load_corpus(directory)
        pipeline.read_metrics_csv(manifest["metrics_csv"])


def job(manifest: dict) -> int:
    from xlalign.cli import main

    for argv in manifest["jobs"]:
        code = main(argv)
        if code != 0:
            return code
    return 0


def _blas_threads() -> int | None:
    # ask the loaded OpenBLAS itself; None when it exports no such symbol
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}_cache"] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **caches,
    }


def replay(manifest: dict, spawn: float) -> dict:
    import replay as rp

    tracer = rp.Tracer()
    out = Path(manifest["root"]) / "replay_out"
    replayed = None
    if "config" in manifest:
        replayed = rp.replay_report(tracer, manifest["config"], out)
    else:
        out.mkdir(parents=True, exist_ok=True)
        rp.replay_cli(tracer, manifest["jobs"], out)
    replay_wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
    sweep = None
    if replayed is not None:
        rp.knn_probes(tracer, replayed)
        sweep = rp.sweep_probes(tracer, replayed)
    return {
        "replay_wall_s": replay_wall,
        "spans": tracer.spans,
        "sweep": sweep,
        "out": str(out),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "info":
        Path(argv[1]).write_text(json.dumps(info()), encoding="utf-8")
        return 0
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "setup":
        setup(manifest)
        return 0
    if mode == "job":
        return job(manifest)
    if mode == "replay":
        result = replay(manifest, float(argv[2]))
        Path(argv[3]).write_text(json.dumps(result), encoding="utf-8")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
