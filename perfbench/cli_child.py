"""Run one k3lat command with the tracer installed (traced ``cli`` workload).

usage: python3 perfbench/cli_child.py SPANS_FILE QUERY_ID <k3lat arguments>...

The spans are written to SPANS_FILE when the command returns; the exit
code is the command's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, qid, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import k3lat.cli

    tracer = Tracer()
    tracer.qid = qid
    tracer.install()
    try:
        return k3lat.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
