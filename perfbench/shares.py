"""Inclusive time shares from a spans file written by a traced run.

usage: python3 perfbench/shares.py .perfbench_out/spans-<workload>-<seed>.json [N]

For every function, prints the wall time covered by its outermost spans
(nested calls to the same function counted once) as a share of the time
covered by all top-level spans, with its call count; the N largest
(default 15) are shown.
"""

import sys

from tracer import read_spans


def shares(spans):
    by_id = {(s[0], s[1]): s for s in spans}
    total = sum(s[5] - s[4] for s in spans if s[2] is None)
    inclusive, calls = {}, {}
    for s in spans:
        name = s[3]
        calls[name] = calls.get(name, 0) + 1
        parent = s[2]
        while parent is not None and by_id[s[0], parent][3] != name:
            parent = by_id[s[0], parent][2]
        if parent is None:  # outermost span of this function
            inclusive[name] = inclusive.get(name, 0.0) + s[5] - s[4]
    return total, inclusive, calls


def main() -> int:
    spans, _ = read_spans(sys.argv[1])
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    total, inclusive, calls = shares(spans)
    print(f"top-level span time {total:.3f} s")
    for name, t in sorted(inclusive.items(), key=lambda kv: -kv[1])[:top]:
        print(f"  {name:<40} {t:10.3f} s  {t / total:6.1%}  {calls[name]:>8} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
