"""``kahrisma`` under spans: ``python cli_traced.py SPANS_OUT -- ARGS``.

Times ``import repro.cli`` as the ``cli.import`` span, patches the
layer functions listed in :data:`kbench.spans.LAYER_FUNCTIONS`, runs
``repro.cli.main(ARGS)`` and writes the spans to ``SPANS_OUT`` as the
process ends — also when the command fails.  Patching imports the
modules the CLI would load lazily, outside every span.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    spans_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_OUT -- ARGS...")
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from kbench.spans import Span, SpanRecorder

    recorder = SpanRecorder()
    start = time.perf_counter_ns()
    import repro.cli

    recorder.spans.append(
        Span(0, None, "cli.import", start, time.perf_counter_ns())
    )
    recorder.install(keep={
        # compile_module returns (module, per_entry, report).
        "aot.compile": lambda result: result[2]["static_coverage"],
    })
    code = 1
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            fh.write(recorder.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
