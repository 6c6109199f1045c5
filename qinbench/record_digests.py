"""Record the SHA-256 of each default sweep CSV into digests.json.

    python3 qinbench/record_digests.py

Sweep CSVs must stay byte-identical across changes; rerun this only with a
change that means to alter them, and say so in its notes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qinlab import experiments  # noqa: E402


def main() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for name in experiments.EXPERIMENTS:
            path = experiments.run(experiments.ExperimentConfig(
                experiment=name, output_path=str(Path(tmp) / f"{name}.csv")))
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    target = HERE / "digests.json"
    target.write_text(json.dumps({"sweeps": digests}, indent=2) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
