"""The benchmark's server launcher: ``repro.serve.server.main``, optionally traced.

Usage (``PYTHONPATH`` must reach ``src`` and the checkout root)::

    python crnnbench/launch.py [--trace-dir DIR] -- <repro.serve.server args>

Without ``--trace-dir`` this is exactly ``python -m repro.serve.server``.
With it, span wrappers go onto the program's public functions before
the server starts (so forked shard workers inherit them), and every
process writes its spans into ``DIR`` when it ends.
"""

from __future__ import annotations

import argparse
import signal
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    # The benchmark stops the server with SIGINT.  A process started in
    # the background of a non-interactive shell inherits SIGINT ignored,
    # and Python then never raises KeyboardInterrupt; restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]
    from repro.serve import server

    if args.trace_dir is None:
        return server.main(server_args)
    from crnnbench import trace

    recorder = trace.install_server(args.trace_dir)
    try:
        return server.main(server_args)
    finally:
        recorder.dump(args.trace_dir, "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
