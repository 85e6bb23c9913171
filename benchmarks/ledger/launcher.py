"""The server subprocess of a traced run: wrap the layers, then serve.

    python -m benchmarks.ledger.launcher [repro.server flags...]

Installs the ledger's wrappers (:mod:`benchmarks.ledger.spans`), makes
every POST that carries an ``X-Trace-Id`` header one recorded operation
rooted at the handler's ``do_POST``, runs ``repro.server.cli.main`` with
the arguments, and once the server has stopped (SIGTERM stops it
cleanly) prints the recorded spans as one JSON line on stdout, after the
server's ``serving on`` line.
"""

from __future__ import annotations

import json
import sys

from repro.server import cli

from .spans import Recorder, install


def main(argv: list[str]) -> int:
    recorder = Recorder()
    install(recorder)
    make_server = cli.make_server

    def traced_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        handler = server.RequestHandlerClass
        do_post = handler.do_POST

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            key = self.headers.get("X-Trace-Id")
            if key is None:
                return do_post(self)
            with recorder.root(key, "http.handler"):
                return do_post(self)

        handler.do_POST = do_POST
        return server

    cli.make_server = traced_make_server
    status = cli.main(argv)
    print(json.dumps(recorder.dump()), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
