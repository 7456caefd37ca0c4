"""The content-addressed result store: keys, round trips, gc.

The store's correctness currency is the key function: identical
(config, seed, chunk, code) must map to one address, and any difference
in any component must map somewhere else.  JSON round trips must be
exact (``repr``-faithful floats), or a cache-served result would not be
bit-identical to a cold run.
"""

import dataclasses
import json

import pytest

from repro.campaign.store import (
    ResultStore,
    canonical_config_dict,
    canonical_json,
    code_fingerprint,
    config_from_canonical,
    content_key,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import ScenarioConfig
from repro.fds.config import FdsConfig


class TestCanonicalization:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_config_round_trip(self):
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=9,
            loss_kind="bounded",
            loss_params=(("p", 0.3), ("budget", 2.0)),
            max_backups=2,
            fds=FdsConfig(phi=20.0, thop=0.5, use_digests=False),
        )
        restored = config_from_canonical(canonical_config_dict(config))
        assert restored == config

    def test_config_round_trip_array_gilbert_energy(self):
        """The newly accepted array-engine knobs (gilbert loss params,
        track_energy) survive canonicalization unchanged -- campaign
        caching must key and restore them faithfully."""
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=9,
            engine="array",
            track_energy=True,
            loss_kind="gilbert",
            loss_params=(
                ("p_good", 0.02),
                ("p_bad", 0.8),
                ("p_gb", 0.05),
                ("p_bg", 0.3),
            ),
        )
        restored = config_from_canonical(canonical_config_dict(config))
        assert restored == config
        assert restored.track_energy and restored.engine == "array"

    def test_config_round_trip_formation_knobs(self):
        """The protocol-formation knobs accepted by both engines must
        survive canonicalization unchanged -- a resumed campaign has to
        re-run the same formation, not silently fall back to oracle."""
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=9,
            engine="array",
            formation="protocol",
            formation_iterations=5,
            formation_backoff_fraction=0.25,
        )
        restored = config_from_canonical(canonical_config_dict(config))
        assert restored == config
        assert restored.formation == "protocol"
        assert restored.formation_iterations == 5
        payload = json.loads(canonical_json(canonical_config_dict(config)))
        assert config_from_canonical(payload) == config

    def test_formation_knobs_change_the_content_key(self):
        base = ScenarioConfig(seed=7)
        variants = [
            dataclasses.replace(base, formation="protocol"),
            dataclasses.replace(base, formation_iterations=4),
            dataclasses.replace(base, formation_backoff_fraction=0.2),
        ]
        base_key = content_key("scenario", canonical_config_dict(base))
        keys = {
            content_key("scenario", canonical_config_dict(v)) for v in variants
        }
        assert base_key not in keys
        assert len(keys) == len(variants)

    def test_round_trip_survives_json(self):
        config = ScenarioConfig(loss_probability=0.1, spacing_factor=1.6)
        payload = json.loads(canonical_json(canonical_config_dict(config)))
        assert config_from_canonical(payload) == config

    def test_unknown_field_rejected(self):
        payload = canonical_config_dict(ScenarioConfig())
        payload["not_a_field"] = 1
        with pytest.raises(ConfigurationError):
            config_from_canonical(payload)


class TestContentKeys:
    def test_key_is_stable(self):
        payload = canonical_config_dict(ScenarioConfig(seed=7))
        assert content_key("scenario", payload) == content_key("scenario", payload)

    def test_any_config_field_change_misses(self):
        # The satellite guarantee: a single config field change must be a
        # store miss, never a stale hit.
        base = ScenarioConfig(seed=7)
        variants = [
            dataclasses.replace(base, loss_probability=0.2),
            dataclasses.replace(base, members_per_cluster=31),
            dataclasses.replace(base, seed=8),
            dataclasses.replace(base, fds=FdsConfig(phi=60.0)),
        ]
        base_key = content_key("scenario", canonical_config_dict(base))
        keys = {
            content_key("scenario", canonical_config_dict(v)) for v in variants
        }
        assert base_key not in keys
        assert len(keys) == len(variants)

    def test_code_fingerprint_is_part_of_the_key(self):
        payload = {"x": 1}
        assert (
            content_key("k", payload, fingerprint="aaa")
            != content_key("k", payload, fingerprint="bbb")
        )

    def test_code_fingerprint_stable_and_hexadecimal(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


class TestResultStore:
    def test_put_get_round_trip_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = {"mean": 0.1 + 0.2, "count": 3, "tiny": 1.2345678901234567e-12}
        store.put("ab" * 32, payload)
        assert store.get("ab" * 32) == payload

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("cd" * 32) is None
        store.put("cd" * 32, {"v": 1})
        assert store.get("cd" * 32) == {"v": 1}
        assert store.misses == 1
        assert store.hits == 1

    @pytest.mark.parametrize("body", [
        b"\xff\xfe not utf-8",
        b"{}",
        b"[1, 2]",
        b'{"key": "' + b"ef" * 32 + b'", "payload": {"v": 1}}',
        b"",
        b"\0" * 64,
    ], ids=["not-utf8", "no-payload", "not-an-object", "foreign-key",
            "zero-length", "nul-filled"])
    def test_unreadable_object_is_a_miss_never_served(self, tmp_path, body):
        # Un-synced objects can come back from a power loss torn; gc and
        # operators can leave anything.  None of it may be served.
        store = ResultStore(tmp_path / "store")
        key = "ab" * 32
        store.put(key, {"v": 1})
        store._object_path(key).write_bytes(body)
        assert store.get(key) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 1)
        assert [wrapped.get("code") for _, wrapped in store.iter_objects()] == [None]
        assert store.gc(stale_only=True)["objects_removed"] == 1
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for i in range(5):
            store.put(f"{i:02d}" + "e" * 62, {"i": i})
        assert not list((tmp_path / "store").rglob("*.tmp"))

    def test_gc_removes_stale_code_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("11" * 32, {"v": 1})  # current fingerprint
        store.put("22" * 32, {"v": 2}, fingerprint="stale")
        stats = store.gc(stale_only=True)
        assert stats["objects_removed"] == 1
        assert store.get("11" * 32) == {"v": 1}
        assert store.get("22" * 32) is None

    def test_gc_all_wipes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("33" * 32, {"v": 3})
        stats = store.gc(stale_only=False)
        assert stats["objects_removed"] == 1
        assert store.get("33" * 32) is None

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("44" * 32, {"v": 4}, fingerprint="stale")
        stats = store.gc(stale_only=True, dry_run=True)
        assert stats["objects_removed"] == 1
        assert store.get("44" * 32) == {"v": 4}
