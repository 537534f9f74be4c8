"""Traced stand-in for one CLI call, run as its own fresh process.

    python traced_cli.py SPANS_OUT analyze|check FILE NAME/ARITY [TYPES]

Prints what ``repro FILE QUERY --json`` (or ``repro check ... --json``)
prints and exits with the same code; the spans of its layers and the
engine and kernel counters go to SPANS_OUT as JSON.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    out_path, mode, path, query_text = argv[:4]
    input_types = argv[4].split(",") if len(argv) > 4 else None
    name, _, arity = query_text.rpartition("/")
    spans = SpanRecorder()
    with spans.span("proc.import"):
        import pipeline
        pipeline.arena.kernel()
    with open(path) as handle:
        source = handle.read()
    text, code, counters = pipeline.run(spans, source, (name, int(arity)),
                                        input_types, mode == "check")
    with spans.span("proc.write"):
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    with open(out_path, "w") as handle:
        json.dump({"started": STARTED, "spans": spans.spans,
                   "counters": counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
