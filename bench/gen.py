"""Seeded input generators for the benchmark.

Everything here draws from a ``random.Random`` the caller seeds and
produces plain data: formula text, model dicts in the JSON file format,
proof dicts.  Nothing calls the program, so a change to the program's
own generator or printer cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random

BINARY = ("&", "|", "->", "<->")


def group_text(members) -> str:
    return ",".join(str(a) for a in sorted(members))


def random_group(rng: random.Random, agents) -> tuple[int, ...]:
    agents = sorted(agents)
    size = rng.randint(1, len(agents))
    return tuple(sorted(rng.sample(agents, size)))


def formula(rng: random.Random, atoms, agents, depth: int) -> str:
    """A random formula, fully parenthesised, over ``atoms`` and boxes of
    groups drawn from ``agents``."""
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.06:
            return "true"
        if r < 0.1:
            return "false"
        return rng.choice(atoms)
    r = rng.random()
    if r < 0.3:
        g = group_text(random_group(rng, agents))
        return f"[{g}]{_wrap(formula(rng, atoms, agents, depth - 1))}"
    if r < 0.45:
        return "~" + _wrap(formula(rng, atoms, agents, depth - 1))
    op = rng.choice(BINARY)
    left = formula(rng, atoms, agents, depth - 1)
    right = formula(rng, atoms, agents, depth - 1)
    return f"({left} {op} {right})"


def _wrap(text: str) -> str:
    simple = text.isidentifier() or text.startswith(("(", "["))
    return text if simple else f"({text})"


def model_dict(rng: random.Random, n_worlds: int, agents, atoms,
               max_members: int = 3) -> dict:
    """An agent-indexed model with sparse families: each (agent, world)
    family gets 0..max_members distinct world sets."""
    labels = [f"w{i}" for i in range(n_worlds)]

    def world_set(bits: int) -> list[str]:
        return [labels[i] for i in range(n_worlds) if (bits >> i) & 1]

    top = 1 << n_worlds
    valuation = {a: world_set(rng.randrange(top)) for a in atoms}
    families = {}
    for agent in agents:
        per_world = {}
        for label in labels:
            k = rng.randint(0, min(max_members, top))
            per_world[label] = [world_set(b)
                                for b in sorted(rng.sample(range(top), k))]
        families[str(agent)] = per_world
    return {"worlds": labels, "valuation": valuation, "agents": families}


def tautology_proof(rng: random.Random, units: int, agents) -> dict:
    """A five-line proof whose widest ``taut`` line has exactly ``units``
    propositional units (atoms and boxed formulas).

    1. [G,H]true -> [G]true      axiom b2
    2. T                          taut, ``units - 2`` units
    3. A -> (T -> (A & T))        taut, ``units`` units
    4. T -> (A & T)               mp 1, 3
    5. A & T                      mp 2, 4

    T is ``(u1 & (u2 & ...)) -> uk``.  Its shape is fixed by the unit
    count, so the cost of checking the proof does not depend on the draw;
    the draw picks the groups, which units are boxed and their order.
    """
    # H must add an agent outside G, or the axiom has one unit, not two.
    agents = sorted(agents)
    g = tuple(sorted(rng.sample(agents, rng.randint(1, len(agents) - 1))))
    h = (rng.choice([a for a in agents if a not in g]),)
    union = tuple(sorted(set(g) | set(h)))
    axiom = f"[{group_text(union)}]true -> [{group_text(g)}]true"
    unit_texts = []
    for i in range(units - 2):
        if i % 3 == 2:
            box = group_text(random_group(rng, agents))
            unit_texts.append(f"[{box}]a{i}")
        else:
            unit_texts.append(f"a{i}")
    rng.shuffle(unit_texts)
    conj = unit_texts[-1]
    for unit in reversed(unit_texts[:-1]):
        conj = f"{unit} & ({conj})"
    taut = f"({conj}) -> {rng.choice(unit_texts)}"
    a, t = f"({axiom})", f"({taut})"
    lines = [
        (axiom, {"type": "axiom", "schema": "b2"}),
        (taut, {"type": "taut"}),
        (f"{a} -> ({t} -> ({a} & {t}))", {"type": "taut"}),
        (f"{t} -> ({a} & {t})", {"type": "mp", "from": [1, 3]}),
        (f"{a} & {t}", {"type": "mp", "from": [2, 4]}),
    ]
    return {"logic": {"extensions": [], "cg": False},
            "lines": [{"formula": f, "just": j} for f, j in lines]}
