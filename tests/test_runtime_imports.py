"""The program runs without scipy.

numpy is the one runtime dependency (``tests/test_dependencies.py``
holds the declared list to the imports); scipy is a test oracle only.
A fresh interpreter loads the CLI, the benchmark runner and the serve
daemon, fits and predicts the two models that used scipy -- KitNET,
wide enough that its feature map clusters, and KNN -- and must not have
imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import numpy as np

import repro.bench.runner
import repro.cli
import repro.serve
from repro.ml import KitNET, KNeighborsClassifier

rng = np.random.default_rng(0)
X = rng.normal(size=(300, 16))
y = (X[:, 0] > 0).astype(int)
kitnet = KitNET(n_epochs=2).fit(X)
assert len(kitnet.groups_) > 1
kitnet.predict(X)
KNeighborsClassifier().fit(X, y).predict(X)
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
print(" ".join(loaded))
"""


def test_no_program_path_imports_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == ""
