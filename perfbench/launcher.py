"""Run ``gner serve`` in this process, optionally with per-layer tracing.

    python3 perfbench/launcher.py --report FILE --trace 0|1 -- serve --registry R --port P

It stops on SIGINT, like ``gner serve``, then writes FILE: the process's
peak resident memory and, when traced, the spans it recorded.
"""

import argparse
import json
import resource
import sys

from gner.cli import main


def run() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    code = main(serve_args)
    report = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.export() if tracer else None,
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
