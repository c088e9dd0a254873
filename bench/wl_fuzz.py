"""Workload ``fuzz``: the criterion-03 soundness fuzz of the base logic.

Each batch is ``soundness_fuzz(BASE_LOGIC, ...)`` at the criterion-03
bounds (4 worlds, agents 1-3, atoms p and q, the 7-group pool) with
seed ``seed + batch``.  One item is one drawn model checked against
B1-B4.  B1-B4 are sound on every agent model, so every batch must
report zero violations.
"""

from __future__ import annotations

import random
from time import perf_counter

from nbhd import (
    BASE_LOGIC, SearchBounds, model_to_dict, random_model, soundness_fuzz,
)

import layers

# Small batches: each batch is one latency sample, so 160 of them leave
# 16 beyond the 90th percentile.
BATCHES = 160
TRIALS = 10
SNAPSHOT_EVERY = 10
AGENTS = (1, 2, 3)
ATOMS = ("p", "q")
CLI_CALLS = 9
CLI_TRIALS = 30
_POOL_ARG = "1;2;3;1,2;1,3;2,3;1,2,3"


class Inputs:
    def __init__(self, seed: int):
        self.batches = [
            SearchBounds(max_worlds=4, agents=AGENTS, atoms=ATOMS,
                         mode="random", trials=TRIALS, seed=seed + i)
            for i in range(BATCHES)]
        rng = random.Random(seed)
        # The CLI path closest to the fuzz: a random-mode search for a
        # countermodel to each base schema in turn over the same pool
        # and bounds.
        self.cli = [
            (["valid", "--schema", ("b1", "b2", "b3", "b4")[i % 4],
              "--pool", _POOL_ARG, "--agents", "1,2,3", "--max-worlds", "4",
              "--mode", "random", "--trials", str(CLI_TRIALS),
              "--seed", str(rng.randrange(1 << 31))],
             0, "no countermodel within bounds (not a validity proof)\n")
            for i in range(CLI_CALLS)]


def build(seed: int, workdir: str) -> Inputs:
    return Inputs(seed)


def run_pass(inputs: Inputs, items=None):
    """Untraced pass over all batches, or over those indexed by ``items``:
    one output and one (items, seconds) sample per batch."""
    outputs, samples = [], []
    for bounds in layers.pick(inputs.batches, items):
        start = perf_counter()
        report = soundness_fuzz(BASE_LOGIC, bounds)
        samples.append((bounds.trials, perf_counter() - start))
        outputs.append(report.to_json_dict())
    return outputs, samples


def traced_pass(inputs: Inputs, tracer):
    """The same batches, with the library's calls under spans."""
    outputs = []
    with layers.nested(tracer):
        for b, bounds in enumerate(inputs.batches):
            tracer.item = b
            report = tracer.call("search.soundness_fuzz", soundness_fuzz,
                                 BASE_LOGIC, bounds)
            outputs.append(report.to_json_dict())
    return outputs


def record(inputs: Inputs, outputs) -> list:
    """What the digest covers: each report plus every k-th model drawn."""
    return [
        {"report": out,
         "models": [model_to_dict(random_model(b, d))
                    for d in range(0, b.trials, SNAPSHOT_EVERY)]}
        for b, out in zip(inputs.batches, outputs)]


def known_answers(inputs: Inputs, outputs) -> list[str]:
    problems = []
    for i, out in enumerate(outputs):
        if out.get("violations") != [] or out.get("trials") != TRIALS \
                or out.get("schemas") != ["b1", "b2", "b3", "b4"]:
            problems.append(f"batch {i}: expected a clean report of "
                            f"{TRIALS} trials over b1-b4, got {out!r:.200}")
    return problems
