"""Time the program's set-up in a fresh interpreter.

Usage: python setup_probe.py <workload> <seed>

Prints one JSON line: `import_s`, the time of `import ptnu.cli`, with
`import_probe_s`, a host probe taken right after it; `op_s`, the time of
the workload's first operation (the warm-up), with `op_probes_s`, host
probes taken right before and after it.  Making the inputs and
references between the two timed parts is not timed.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    start = time.perf_counter()
    import ptnu.cli  # noqa: F401
    import_s = time.perf_counter() - start
    from run import host_probe

    import_probe_s = host_probe()
    import workloads

    workload = workloads.make(sys.argv[1], int(sys.argv[2]))
    item = workload.rounds[0][0]
    before = host_probe()
    start = time.perf_counter()
    output = workload.run(item)
    op_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "import_probe_s": import_probe_s,
                      "op_s": op_s, "op_probes_s": [before, host_probe()],
                      "problems": workload.check(item, output)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
