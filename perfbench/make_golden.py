"""Record the golden outputs the benchmark checks on the default seed.

    python3 perfbench/make_golden.py

Runs one operation of the `reference` and `train` workloads on the default
seed and writes what their checks compare (per-design exotherm and final
mid-point alpha, and the final loss) to perfbench/golden.json. Regenerate
only when a change is meant to alter these numbers, and say why.
"""

import json
import os
import shutil
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS  # noqa: E402


def main() -> None:
    golden = {}
    workdir = tempfile.mkdtemp(dir=os.path.dirname(HERE),
                               prefix=".perfbench_golden-")
    try:
        for name in ("reference", "train"):
            wl = WORKLOADS[name]
            state = wl.setup(DEFAULT_SEED, workdir)
            golden[name] = wl.observe(state, wl.op(state, 0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden["seed"] = DEFAULT_SEED
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    print(json.dumps(golden, indent=1))


if __name__ == "__main__":
    main()
