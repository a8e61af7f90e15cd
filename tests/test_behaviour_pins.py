"""Behaviour pins: committed digests of whole runs.

Each case runs one workload end to end and reduces it to a SHA-256
over the trace digest and the canonical :class:`WorkloadResult` (plus
the target history for the load-adaptive policy).  A change that is
meant to be a pure optimisation or refactor must leave every digest
untouched; a change that alters behaviour on purpose regenerates them
and says so.

Regenerate (prints the ``GOLDEN`` table)::

    PYTHONPATH=src python tests/test_behaviour_pins.py
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro.checkpoint import SimulationSession
from repro.core.dynamic import DynamicTargetPDPA
from repro.experiments.ablations import FixedMplPDPA, NoRelativeSpeedupPDPA
from repro.experiments.common import (
    ExperimentConfig,
    build_session,
    run_jobs_with_policy,
    run_workload,
)
from repro.faults.scenarios import build_scenario
from repro.parallel.cache import canonical_dumps
from repro.parallel.cells import trace_digest
from repro.qs.workload import TABLE1_MIXES, generate_workload
from repro.sim.rng import RandomStreams

CONFIG = ExperimentConfig(seed=0)
LOAD = 1.0


def _digest(out, *extra: object) -> str:
    text = trace_digest(out) + ":" + canonical_dumps(out.result.to_dict())
    for item in extra:
        text += ":" + repr(item)
    return hashlib.sha256(text.encode()).hexdigest()


def _jobs(workload: str):
    return generate_workload(
        TABLE1_MIXES[workload], LOAD,
        n_cpus=CONFIG.n_cpus, duration=CONFIG.duration,
        streams=RandomStreams(CONFIG.seed).spawn("workload"),
    )


def _policy_run(policy: str, workload: str) -> Callable[[], str]:
    return lambda: _digest(run_workload(policy, workload, LOAD, CONFIG))


def _fault_run(policy: str, scenario: str) -> Callable[[], str]:
    config = CONFIG.with_faults(build_scenario(scenario, CONFIG.n_cpus))
    return lambda: _digest(run_workload(policy, "w3", LOAD, config))


def _dynamic_target() -> str:
    policy = DynamicTargetPDPA()
    out = run_jobs_with_policy(policy, _jobs("w1"), CONFIG, LOAD)
    return _digest(out, policy.target_history)


def _ablation(factory: Callable[[], object]) -> Callable[[], str]:
    return lambda: _digest(run_jobs_with_policy(factory(), _jobs("w1"), CONFIG, LOAD))


CASES: Dict[str, Callable[[], str]] = {
    **{
        f"{policy}/{workload}": _policy_run(policy, workload)
        for policy in ("IRIX", "Equip", "Equal_eff", "PDPA")
        for workload in ("w1", "w2", "w3", "w4")
    },
    **{
        f"{policy}/w3/{scenario}": _fault_run(policy, scenario)
        for policy in ("PDPA", "Equal_eff")
        for scenario in ("cpukill8", "flaky-reports", "brownout")
    },
    "PDPA(dyn-target)/w1": _dynamic_target,
    "PDPA(fixed-mpl)/w1": _ablation(FixedMplPDPA),
    "PDPA(no-relspeedup)/w1": _ablation(NoRelativeSpeedupPDPA),
}

GOLDEN: Dict[str, str] = {
    "Equal_eff/w1": "0cf7cdd0b96b411359af1ef2899eb2e038beb13c72ab76f9eb6006b61edea628",
    "Equal_eff/w2": "bce875e8524d56a68b3af59ddde9d4cfe17f02d753d5291c40346680ccadea0c",
    "Equal_eff/w3": "45084cf8db58bcd4cf23a115a32792de0cb6b1126fb56c576a67e272665a9b5d",
    "Equal_eff/w3/brownout": "72328c8a96ed0fa5dbcdf42fb72525ef8ef9728e6783d152982bd65ca08c7603",
    "Equal_eff/w3/cpukill8": "82caa2da7f1673f67b8b377766964d3aedd3b1bd48f51376331fdf710c93a5cc",
    "Equal_eff/w3/flaky-reports": "d30575ab508a1124b066b6929195ac82e1f9ca929014e9466e3e8d691d3f64dc",
    "Equal_eff/w4": "5fd11509156d51d12f091a26c27c7af66069f3e027d18e20a57616335bdaf4d2",
    "Equip/w1": "ec6e15451b2503ecced51063250c215779dee1fa3683513138ae8f258d310952",
    "Equip/w2": "d833013b7b9816458a857a7ec5ef501a97452bb0938fc8c5b403151303ef379b",
    "Equip/w3": "254e46aaf6bd5b0d1a32e1d7caa374f3e7191fe5e2b2154eb88554a7c5e755f4",
    "Equip/w4": "a523956340beda8695cefae3015536f5d841317a0c5ce13aa2d69e63ff9db976",
    "IRIX/w1": "0f31f33813f8b94e4122265c888a85603de2698c261f1bc90808db531d69a90c",
    "IRIX/w2": "b51c882b7b0f3416c6a7010521f2a5ad902fe653bf58a763d94059052489e17d",
    "IRIX/w3": "1972a7fd170eef129f36e78e129173fdc4d6647f7bc6526ddf002e34d48aecc3",
    "IRIX/w4": "c0de8cfc600c3bd9156902bc6377bb52f4d7c5e31849fbfb4b64d203d22350b8",
    "PDPA(dyn-target)/w1": "3c5a369c936f57ae3e651a98b3465f953921843782b7e9fa3f999496445288a2",
    "PDPA(fixed-mpl)/w1": "949f2856bdb6ef5f593f1c53d060db39e32e408dc4dbaa9335c9d693fa45c429",
    "PDPA(no-relspeedup)/w1": "2d5e082f5bac488fc4c968007ddea918e808fd1131aca2195baf804fc1cd5611",
    "PDPA/w1": "1e0155f589e6fed016a3f8d8fc31d838d6a3c631bd6294e04f267daa42bc4933",
    "PDPA/w2": "ed40793b67498ebbcf507a7a6cf1cd97bea04b7430aa91f22694df3649c34bae",
    "PDPA/w3": "edd1da6b7a818109a983cae2801fefdef2bc763baf6820a787ec2e866a8212ec",
    "PDPA/w3/brownout": "fdedbdcf3894ffaa7d910aeeedccca61a06a0ba2edb5b504edd875416f214bea",
    "PDPA/w3/cpukill8": "208858b9266611a70054b77bc573d2b48abc791bc3d4357251edeb7c27cd8a74",
    "PDPA/w3/flaky-reports": "ab8eace5026ef31a461fa9399e0a693748d7ecdfa43aa18d3ae233de432744a0",
    "PDPA/w4": "75e6705b16ccecef2ce0db92752568841403a5b024872aac54761b5c2428956f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_digest_is_pinned(case: str) -> None:
    assert CASES[case]() == GOLDEN[case]


def test_mid_run_checkpoint_restores_to_the_pinned_run(tmp_path) -> None:
    session = build_session("PDPA", _jobs("w2"), CONFIG, load=LOAD, workload="w2")
    session.run(until=CONFIG.duration / 2)
    session.save(tmp_path / "mid.ckpt")
    restored = SimulationSession.restore(tmp_path / "mid.ckpt", expected_config=CONFIG)
    restored.run()
    assert _digest(restored.finish()) == GOLDEN["PDPA/w2"]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, str] = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
    print("}")
