"""Run one youngspec CLI invocation in this fresh process and report its cost.

    python3 job.py REPORT [--trace SPANS] -- CLI-ARGS...

REPORT receives JSON with the monotonic time at which ``youngspec.cli``
finished importing, the wall time of ``cli.main``, its exit code and the
process's peak RSS. With --trace, SPANS receives a pickle of the spans and
captured oracle inputs recorded by ``spans.Tracer``.
"""

import sys
import time

import youngspec.cli as cli

IMPORTED = time.monotonic()


def main() -> int:
    sep = sys.argv.index("--")
    report, opts, argv = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1:]
    tracer = None
    if opts:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.monotonic()
    rc = cli.main(argv)
    job_s = time.monotonic() - start

    import json
    import pickle
    import resource
    if tracer is not None:
        with open(opts[1], "wb") as fp:
            pickle.dump({"spans": tracer.spans, "captured": tracer.captured}, fp)
    with open(report, "w") as fp:
        json.dump({"imported": IMPORTED, "job_s": job_s, "rc": rc,
                   "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
