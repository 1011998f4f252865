"""Traced stand-in for ``python -m k0hom.cli``.

Usage: ``python bench/cli_child.py SPANS_OUT SUBCOMMAND [ARGS...]`` from the
checkout root.  It times ``import k0hom.cli``, installs the span wrappers,
runs ``k0hom.cli.main`` on the arguments inside one operation span, writes
the spans and counters to SPANS_OUT as JSON and exits with the CLI's status.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> None:
    out_path, args = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import k0hom.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.op(), tracer.span(f"cli.{args[0]}"):
            k0hom.cli.main(args, prog_name="k0hom")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.settle()
        tracer.sums["cli.import_s"] += import_s
        tracer.sums["cli.children"] += 1
        out_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main()
