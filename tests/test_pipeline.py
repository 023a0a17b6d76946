"""Warm-start guesses the pipeline builds from an unbranched solution."""

import numpy as np
import pytest

from branchopt import pipeline
from branchopt import transcription as tr
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp

from test_transcription import ARM_END, ARM_INIT, _cfg

# (size, 2-norm, index-weighted sum) of the guess built from a fixed
# perturbation of the default unbranched guess, recorded so that a change
# in how the guesses are assembled fails here.
RECORDED_GUESS = {
    ("cartpole", "sure"): (148, 4643.655634968315, 679816.6623679372),
    ("cartpole", "tree"): (203, 4643.666039301746, 940514.2673216475),
    ("arm", "sure"): (242, 18.448965209393783, 418.26791792416867),
    ("arm", "tree"): (335, 21.220713620981776, 573.1339896006576),
}


@pytest.mark.parametrize("plant, variant", list(RECORDED_GUESS))
def test_guess_from_nominal_matches_recorded(plant, variant):
    if plant == "arm":
        adapter = ArmCatchOcp()
        cfg = _cfg(variant, x_init=ARM_INIT, x_end=ARM_END)
    else:
        adapter, cfg = CartPoleOcp(), _cfg(variant)
    nom_cfg = pipeline.nominal_stage_config(cfg)
    _, nom_layout = tr.build_nominal(adapter, nom_cfg)
    x = tr.default_initial_guess(adapter, nom_layout)
    x = x + 0.01 * np.random.default_rng(5).uniform(-1.0, 1.0, size=x.size)
    nominal = tr.extract_solution(nom_layout, x)
    _, layout = getattr(tr, f"build_{variant}")(adapter, cfg)
    guess_from = getattr(pipeline, f"{variant}_guess_from_nominal")
    g = guess_from(adapter, layout, nominal, nom_cfg.contact_node)
    size, norm, weighted = RECORDED_GUESS[plant, variant]
    assert g.size == size
    assert float(np.sqrt(g @ g)) == pytest.approx(norm, rel=1e-12, abs=1e-12)
    assert float(g @ np.arange(1, g.size + 1)) == pytest.approx(
        weighted, rel=1e-12, abs=1e-12)
