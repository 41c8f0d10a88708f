"""Benchmark-owned serving process: a default ``SelectorServer`` on a free port.

Started by the serve workload as ``python3 perfbench/server_main.py
--trace 0|1 --spans FILE``.  It prints one JSON line with the bound
address, serves until its standard input closes, then stops the server
and, when traced, writes its spans to FILE.  With ``--trace 1`` the layer
wrappers are installed before the server is built, and the execution pool
is replaced by one that carries each request's span context.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_source_tree  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    use_source_tree()

    recorder = None
    if args.trace:
        from spans import ContextThreadPool, SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    from repro.serving import SelectorServer, ServerThread, ServingConfig

    server = SelectorServer(config=ServingConfig())
    if recorder is not None:
        server._pool.shutdown(wait=True)
        server._pool = ContextThreadPool(
            max_workers=max(1, server.config.execution_workers),
            thread_name_prefix="repro-serve",
        )
    with ServerThread(server) as thread:
        host, port = thread.address
        print(json.dumps({"host": host, "port": port}), flush=True)
        sys.stdin.read()
    if recorder is not None and args.spans:
        Path(args.spans).write_text(json.dumps(recorder.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
