"""The paper's convergence tables at the paper's sizes, run through the CLI.

Opt-in (``pytest -m paper``; tier-1 deselects the marker): the seven tables
take about 30 s, example1 ADI at N=150 half of it.  Each table must exit 0
with no failed cell, and its finest rung must show the orders the paper
reports.  Lie-Trotter with two corrections falls short of third order at
these ladders, so its floor is set below 3, above the one-correction order.
Those rungs are pre-asymptotic, not a floor: example2 Lie-Trotter on rungs
640 to 2560 reaches orders 1.98 and 2.95 (``test_lie_trotter_asymptotic``).
example2 ADI is left out: its corrected rungs blow up at the paper's size.

The paper's nonlinear systems, FitzHugh-Nagumo and Schnakenberg, run as
Strang self-convergence ladders at N=40, about 2.5 s each.  FHN's
one-correction order reaches 3.80 there, so that floor is 3.7.  Their end
times are set here: the problems' defaults are their simulations'.
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
NONLINEAR_STRANG_FLOORS = {0: 1.9, 1: 3.7, 2: 5.7}


def finest_orders(out, problem, scheme):
    """The finest rung's order per correction count, after checking that
    the run recorded no failed cell."""
    name = f"{problem}_{scheme.replace('-', '')}"
    with open(out / f"{name}_run.json", encoding="utf-8") as fh:
        assert json.load(fh)["failures"] == []
    with open(out / f"{name}_convergence.csv", encoding="utf-8") as fh:
        # rows run from the coarsest rung to the finest within each count
        return {int(row["correction"]): float(row["order"]) for row in csv.DictReader(fh)}


@pytest.mark.parametrize("problem,scheme", [
    (problem, scheme) for scheme in ("lie-trotter", "strang")
    for problem in ("example1", "example2", "example3")] + [("example1", "adi")])
def test_table(tmp_path, problem, scheme):
    assert main(["convergence", "--problem", problem, "--scheme", scheme,
                 "--out", str(tmp_path)]) == 0
    finest = finest_orders(tmp_path, problem, scheme)
    for cs, floor in FLOORS[scheme].items():
        assert finest[cs] >= floor, (cs, finest)
    if scheme == "lie-trotter":
        assert finest[2] > finest[1]


@pytest.mark.parametrize("problem,end_time", [("fhn", "0.2"), ("schnakenberg", "0.05")])
def test_nonlinear_strang_ladder(tmp_path, problem, end_time):
    assert main(["convergence", "--problem", problem, "--scheme", "strang", "--grid", "40",
                 "--nt", "40,80,160,320", "--end-time", end_time,
                 "--corrections", "0,1,2", "--out", str(tmp_path)]) == 0
    finest = finest_orders(tmp_path, problem, "strang")
    for cs, floor in NONLINEAR_STRANG_FLOORS.items():
        assert finest[cs] >= floor, (cs, finest)


def test_lie_trotter_asymptotic(tmp_path):
    assert main(["convergence", "--problem", "example2", "--scheme", "lie-trotter",
                 "--grid", "45", "--end-time", "0.025", "--nt", "640,1280,2560",
                 "--corrections", "1,2", "--out", str(tmp_path)]) == 0
    finest = finest_orders(tmp_path, "example2", "lie-trotter")
    assert finest[1] >= 1.9 and finest[2] >= 2.85, finest
