"""`python -m friabilis ARGS` with spans recorded, for traced cli passes.

    python perfbench/clitrace.py SPANS_PATH ARGS...

Writes the spans and work counts to SPANS_PATH as JSON when the command ends.
"""

import sys

import friabilis
import friabilis.cli
from spans import Tracer, dump


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(friabilis)
    try:
        code = friabilis.cli.main(argv)
    finally:
        tracer.uninstall()
        dump(path, tracer.spans, tracer.work)
    return code


if __name__ == "__main__":
    sys.exit(main())
