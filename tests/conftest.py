import random

import pytest
from hypothesis import HealthCheck, settings

import nocsim as ns

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def mesh22():
    return ns.build_mesh(2, 2)


@pytest.fixture
def mesh33():
    return ns.build_mesh(3, 3)


@pytest.fixture
def mesh44():
    return ns.build_mesh(4, 4)


def random_shm(ag, seed, max_links=3, max_turns=3, max_pes=0):
    """A health map with a few random broken elements."""
    rng = random.Random(seed)
    shm = ns.SystemHealthMap(ag)
    for _ in range(rng.randint(0, max_links)):
        shm.apply_fault(("link", rng.randrange(len(ag.links))))
    n_slots = len(ag.turns)
    for _ in range(rng.randint(0, max_turns)):
        shm.apply_fault(("turn", rng.randrange(len(ag.tiles)),
                         rng.randrange(n_slots)))
    for _ in range(rng.randint(0, max_pes)):
        shm.apply_fault(("pe", rng.randrange(len(ag.tiles))))
    return shm


def chain_tg(wcets, weights=None):
    tasks = [ns.Task(i, w) for i, w in enumerate(wcets)]
    weights = weights or [1] * (len(wcets) - 1)
    edges = {(i, i + 1): weights[i] for i in range(len(wcets) - 1)}
    return ns.build_task_graph(tasks, edges)


def two_regions(ag, left, right):
    """Regions for the left and right half of the mesh, one turn model
    each."""
    labels = {t.id: "left" if t.coords[0] < ag.dims[0] // 2 else "right"
              for t in ag.tiles}
    models = {"left": left, "right": right}
    return ns.partition(ag, labels, {label: models[label]
                                     for label in set(labels.values())})
