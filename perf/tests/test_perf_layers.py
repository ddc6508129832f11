"""Self-time attribution and wrapper installation of ``layers.LayerClock``."""

from layers import LAYERS, LayerClock, resolve

import pytest


class FakeClock:
    """Nanosecond clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


class Toy:
    def outer(self, clock: FakeClock) -> str:
        clock.advance(1)
        self.inner(clock)
        clock.advance(2)
        self.inner(clock)
        leaf(clock)
        return "done"

    def inner(self, clock: FakeClock) -> None:
        clock.advance(5)
        leaf(clock)


def leaf(clock: FakeClock) -> None:
    clock.advance(7)


class Base:
    def method(self) -> str:
        return "base"


class Child(Base):
    pass


TOY_LAYERS = (
    ("toy.outer", (f"{__name__}:Toy.outer",)),
    ("toy.inner", (f"{__name__}:Toy.inner",)),
    ("toy.leaf", (f"{__name__}:leaf",)),
)


def test_self_time_subtracts_wrapped_children():
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    with clock.installed(TOY_LAYERS):
        assert Toy().outer(fake) == "done"
    window = clock.take()
    assert window["calls"] == {"toy.outer": 1, "toy.inner": 2, "toy.leaf": 3}
    assert window["self_s"] == pytest.approx({
        "toy.outer": 3e-9,
        "toy.inner": 10e-9,
        "toy.leaf": 21e-9,
    })
    # Self times partition the root call's wall time exactly.
    assert sum(window["self_s"].values()) == pytest.approx(fake.now / 1e9)


def test_installed_restores_every_target_and_take_resets():
    original_outer = Toy.__dict__["outer"]
    original_leaf = leaf
    clock = LayerClock(clock=FakeClock())
    with clock.installed(TOY_LAYERS):
        assert Toy.__dict__["outer"] is not original_outer
        assert globals()["leaf"] is not original_leaf
    assert Toy.__dict__["outer"] is original_outer
    assert globals()["leaf"] is original_leaf
    assert clock.take()["calls"] == {}


def test_inherited_target_is_wrapped_on_the_subclass_then_removed():
    clock = LayerClock(clock=FakeClock())
    with clock.installed((("toy.child", (f"{__name__}:Child.method",)),)):
        assert "method" in vars(Child)
        assert Child().method() == "base"
        assert Base().method() == "base"
    assert "method" not in vars(Child)
    assert clock.take()["calls"] == {"toy.child": 1}


def test_missing_targets_are_reported_not_raised():
    layers = (
        ("gone.module", ("no_such_module_for_perf:f",)),
        ("gone.owner", ("repro.sim.simulator:NoSuchClass.step",)),
        ("gone.attr", ("repro.sim.simulator:Simulator._no_such_stage",)),
        ("not.function", ("repro.sim.config:SimulationConfig.num_nodes",)),
        ("toy.leaf", (f"{__name__}:leaf",)),
    )
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    with clock.installed(layers):
        leaf(fake)
    assert [line.split(" -> ")[0] for line in clock.missing] == [
        "gone.module", "gone.owner", "gone.attr", "not.function",
    ]
    assert all("\n" not in line for line in clock.missing)
    assert clock.take()["calls"] == {"toy.leaf": 1}


def test_every_layer_target_exists():
    for layer, targets in LAYERS:
        for target in targets:
            resolve(target)
