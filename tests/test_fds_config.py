"""Tests for FDS configuration and timing derivations."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fds.config import FdsConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestValidation:
    def test_defaults_valid(self):
        FdsConfig()

    def test_phi_must_fit_execution(self):
        with pytest.raises(ConfigurationError, match="phi"):
            FdsConfig(phi=1.0, thop=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phi": -1.0},
            {"thop": 0.0},
            {"max_forward_retries": -1},
            {"wait_slot": 0.0},
            {"deputy_count": -1},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            FdsConfig(**kwargs)


class TestTiming:
    def test_round_starts(self):
        cfg = FdsConfig(phi=30.0, thop=0.5)
        assert cfg.round_start(60.0, 0) == 60.0
        assert cfg.round_start(60.0, 2) == 61.0

    def test_execution_duration(self):
        cfg = FdsConfig(phi=30.0, thop=0.5)
        assert cfg.execution_duration() == pytest.approx(2.5)
        assert cfg.r3_end_offset == pytest.approx(1.5)

    def test_implicit_ack_window_is_2_thop(self):
        # Figure 3: the sender retransmits after 2 * Thop.
        assert FdsConfig(thop=0.7).implicit_ack_window == pytest.approx(1.4)

    def test_bgw_standby_ladder(self):
        # Section 4.3: BGW rank k waits k * 2*Thop.
        cfg = FdsConfig(thop=0.5)
        assert cfg.bgw_standby(1) == pytest.approx(1.0)
        assert cfg.bgw_standby(3) == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            cfg.bgw_standby(0)

    def test_post_forward_wait(self):
        # Section 4.3: after forwarding, wait (n + 1) * 2*Thop.
        cfg = FdsConfig(thop=0.5)
        assert cfg.post_forward_wait(0) == pytest.approx(1.0)
        assert cfg.post_forward_wait(2) == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            cfg.post_forward_wait(-1)


#: Fields the array engine reads through another owner, with the reason.
ARRAY_EXEMPT = {
    "deputy_count": "the layout builders read it, via layout_knobs()",
    "wait_slot": "it times the peer-forward race, which the rounds collapse",
}


def _attributes_loaded(package: Path, skip=()) -> set:
    loaded = set()
    for path in sorted(package.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_field_is_read_by_both_simulators():
    """A protocol knob one simulator ignores would silently split the
    engines: every field must be read by the event protocol (outside its
    own definition) and by the array engine, bar the named exemptions."""
    fields = {f.name for f in dataclasses.fields(FdsConfig)}
    assert set(ARRAY_EXEMPT) <= fields
    event = _attributes_loaded(SRC / "fds", skip={"config.py"})
    array = _attributes_loaded(SRC / "sim" / "array_engine")
    assert sorted(fields - event) == []
    assert sorted(fields - array - set(ARRAY_EXEMPT)) == []
