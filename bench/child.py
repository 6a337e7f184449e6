"""Benchmark child process: runs in a fresh interpreter with PYTHONPATH=src.

    python3 bench/child.py setup EDGES RESULT
        time `import hypdiff.cli` and `graphio.load_edge_list(EDGES)`.
    python3 bench/child.py main RESULT [--spans SPANS] -- CLI_ARGS...
        time `hypdiff.cli.main(CLI_ARGS)`, traced when --spans is given.

Each mode writes one JSON object to RESULT.
"""

from __future__ import annotations

import json
import os
import sys
import time


def setup(edges: str) -> dict:
    t0 = time.perf_counter()
    import hypdiff.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from hypdiff import graphio

    graphio.load_edge_list(edges)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1}


def run_main(argv: list, spans_path: str | None) -> dict:
    from hypdiff import cli

    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(spans_path)
    return {"rc": rc, "cli_main_s": elapsed}


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        edges, result_path = rest
        result = setup(edges)
        rc = 0
    elif mode == "main":
        result_path, rest = rest[0], rest[1:]
        split = rest.index("--")
        opts, cli_args = rest[:split], rest[split + 1:]
        spans = opts[1] if opts[:1] == ["--spans"] else None
        result = run_main(cli_args, spans)
        rc = result["rc"]
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
