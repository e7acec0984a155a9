"""Committed falsifiers: a physics-level perturbation and the checks it must flip.

Each row monkeypatches one constant or function, runs a command, and names
the checks that must then read "pass": false, with exit 1. The unperturbed
commands pass (tests/test_cli.py). Where two checks rest on the same
computation the row states it, so that they are seen to flip together.
"""

import json

import pytest

from photonam import angular
from photonam.cli import main


def perturb_spin1_jx(monkeypatch):
    # Jx x (1 + 1e-6) breaks [J_a, J_b] = i J_c by ~1e-6 relative. Every
    # density identity is f_A f_B times that closure residual, so the nine
    # density checks fail with su2_closure: they have no falsifier of their own.
    jx, jy, jz = angular.SPIN1_BLOCKS
    monkeypatch.setattr(angular, "SPIN1_BLOCKS", (jx * (1.0 + 1e-6), jy, jz))


def density_row(name):
    return name.startswith("[")


#: (perturbation, command, predicate on check names, how many checks it names):
#: every named check must fail.
ROWS = [
    (perturb_spin1_jx, "algebra", lambda name: name == "su2_closure" or density_row(name), 10),
    (perturb_spin1_jx, "verify-all", lambda name: name in ("su2_closure", "density_commutators"), 2),
]


@pytest.mark.parametrize("perturb,command,flipped,count", ROWS,
                         ids=[f"{row[0].__name__}-{row[1]}" for row in ROWS])
def test_perturbation_flips_its_checks(capsys, monkeypatch, perturb, command, flipped, count):
    perturb(monkeypatch)
    code = main([command])
    payload = json.loads(capsys.readouterr().out)
    named = [check for check in payload["checks"] if flipped(check["name"])]
    assert code == 1 and payload["pass"] is False
    assert len(named) == count
    assert all(check["pass"] is False for check in named)
