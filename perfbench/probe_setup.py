"""Time one set-up in a fresh interpreter: importing the program plus
loading (synthesizing or parsing) the workload's dataset.

    python3 perfbench/probe_setup.py <workload> <seed> <sizes json> <work dir>

Prints the seconds. `run.py` starts this several times per run and
reports the median as `setup_s`, so that each sample pays the import.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> None:
    name, seed, sizes, work_dir = sys.argv[1:]
    start = perf_counter()
    import workloads

    workload = workloads.make(name, int(seed), workloads.Sizes(**json.loads(sizes)), Path(work_dir))
    workload.setup()
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()
