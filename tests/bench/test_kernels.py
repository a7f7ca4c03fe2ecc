"""Generated-kernel machinery: generation, the differential battery,
receipts staleness, and the activate/fallback ladder.

The perf claims live in ``BENCH_kernels.json`` (recorded by ``--tune``);
what these tests pin is the *safety* story around them: a generated
variant is only ever installed after the bitwise battery passes, receipts
from another host/version silently fall back to the builtins, and
deactivation restores the untuned engine exactly.
"""

from __future__ import annotations

import json

import pytest

from repro import vector
from repro.bench import kernels as K
from repro.simtime import core as _core


@pytest.fixture(autouse=True)
def _clean_kernels():
    yield
    K.deactivate()


def write_receipts(path, **overrides) -> str:
    receipts = {
        "version": K.RECEIPTS_VERSION,
        "generated_at": "2026-01-01T00:00:00Z",
        "quick": True,
        "host": K.host_fingerprint(),
        "default": {"dispatch": "dx_generic"},
        "measured": {},
        "machines": {"dancer": {"dispatch": "dx_drain"}},
        "rejected": [],
    }
    receipts.update(overrides)
    path.write_text(json.dumps(receipts))
    return str(path)


class TestGeneration:
    def test_drain_specialization_deletes_both_horizon_guards(self):
        src = K._specialize_drain("dx_test", horizon_known=False)
        assert "horizon is not None" not in src
        assert src.startswith("def dx_test(self, horizon=None):")

    def test_drain_specialization_folds_guards_when_horizon_known(self):
        src = K._specialize_drain("dx_test", horizon_known=True)
        assert "horizon is not None" not in src
        assert src.count("> horizon") == 2

    def test_source_drift_raises_generation_error(self, monkeypatch):
        # A refactor of _run_cohort that changes the guard shape must be
        # loud, not silently produce a wrong kernel.
        monkeypatch.setattr(K, "_builtin_drain_source",
                            lambda: ["def _run_cohort(self, horizon):",
                                     "    pass"])
        with pytest.raises(K.KernelGenerationError):
            K._specialize_drain("dx_test", horizon_known=False)

    def test_every_variant_carries_its_generated_source(self):
        for name in K.DISPATCH_VARIANTS:
            kernel = K.make_dispatch_kernel(name)
            if kernel is not None:  # the builtin maps to None
                assert f"def {name}" in kernel.generated_source


class TestBattery:
    @pytest.mark.parametrize("name", sorted(K.DISPATCH_VARIANTS))
    def test_dispatch_variants_bitwise_identical(self, name):
        K.verify_dispatch_variant(name, seeds=(1,))

    def test_broken_kernel_fails_the_battery(self, monkeypatch):
        # Sabotage a generated drain loop: the battery must catch it.
        real = K.make_dispatch_kernel

        def sabotaged(name):
            kernel = real(name)

            def wrong(sim, horizon):
                kernel(sim, horizon)
                sim.events_processed += 1

            return wrong

        monkeypatch.setattr(K, "make_dispatch_kernel", sabotaged)
        with pytest.raises(K.KernelVerificationError):
            K.verify_dispatch_variant("dx_drain", seeds=(1,))


class TestReceipts:
    def test_fresh_receipts_pass_staleness(self, tmp_path):
        path = write_receipts(tmp_path / "r.json")
        assert K._staleness(K.load_receipts(path)) is None

    def test_version_bump_is_stale(self, tmp_path):
        path = write_receipts(tmp_path / "r.json",
                              version=K.RECEIPTS_VERSION + 1)
        assert "version" in K._staleness(K.load_receipts(path))

    def test_other_host_is_stale(self, tmp_path):
        host = dict(K.host_fingerprint(), python="2.7.18")
        path = write_receipts(tmp_path / "r.json", host=host)
        assert "host fingerprint" in K._staleness(K.load_receipts(path))

    def test_missing_or_corrupt_file_loads_as_none(self, tmp_path):
        assert K.load_receipts(str(tmp_path / "absent.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert K.load_receipts(str(bad)) is None

    def test_env_var_points_the_default_path(self, tmp_path, monkeypatch):
        path = write_receipts(tmp_path / "env.json")
        monkeypatch.setenv(K.ENV_RECEIPTS, path)
        assert K.load_receipts() is not None
        assert K._receipts_path() == tmp_path / "env.json"


class TestActivate:
    def test_activate_installs_recorded_winners(self, tmp_path):
        path = write_receipts(tmp_path / "r.json")
        with vector.forced(True):
            summary = K.activate(machine="dancer", path=path)
        assert summary["active"] is True
        assert summary["dispatch"] == "dx_drain"
        assert _core._DISPATCH_KERNEL is not None
        K.deactivate()
        assert _core._DISPATCH_KERNEL is None

    def test_legacy_waterfill_entries_are_ignored(self, tmp_path):
        # Receipts recorded while waterfill variants existed still activate
        # their dispatch winner.
        path = write_receipts(
            tmp_path / "r.json",
            default={"dispatch": "dx_generic", "waterfill": "wf_generic"},
            machines={"zoot": {"n_res": 1, "dispatch": "dx_split",
                               "waterfill": "wf_fused_r1"}})
        with vector.forced(True):
            summary = K.activate(machine="zoot", path=path)
        assert summary == {"active": True, "reason": None,
                           "dispatch": "dx_split"}

    def test_unknown_machine_falls_back_to_default_entry(self, tmp_path):
        path = write_receipts(tmp_path / "r.json")
        with vector.forced(True):
            summary = K.activate(machine="not-a-machine", path=path)
        assert summary["active"] is True
        assert summary["dispatch"] == "dx_generic"

    def test_vector_disabled_keeps_builtins(self, tmp_path):
        path = write_receipts(tmp_path / "r.json")
        with vector.forced(False):
            summary = K.activate(machine="dancer", path=path)
        assert summary["active"] is False
        assert summary["reason"] == "REPRO_VECTOR disabled"
        assert _core._DISPATCH_KERNEL is None

    def test_stale_receipts_keep_builtins(self, tmp_path):
        path = write_receipts(tmp_path / "r.json",
                              version=K.RECEIPTS_VERSION + 1)
        with vector.forced(True):
            summary = K.activate(machine="dancer", path=path)
        assert summary["active"] is False
        assert "version" in summary["reason"]
        assert _core._DISPATCH_KERNEL is None

    def test_unknown_variant_in_receipts_keeps_builtins(self, tmp_path):
        path = write_receipts(
            tmp_path / "r.json",
            default={"dispatch": "dx_borrowed"})
        with vector.forced(True):
            summary = K.activate(path=path)
        assert summary["active"] is False
        assert "unknown variant" in summary["reason"]


class TestWinnerSelection:
    def test_hysteresis_keeps_the_builtin_on_a_thin_win(self):
        measured = {"dx_generic": 100.0,
                    "dx_drain": 100.0 * K.WIN_MARGIN * 0.99}
        assert K._pick_winner(measured, "dx_generic") == "dx_generic"

    def test_decisive_win_takes_the_variant(self):
        measured = {"dx_generic": 100.0,
                    "dx_drain": 100.0 * K.WIN_MARGIN * 1.01}
        assert K._pick_winner(measured, "dx_generic") == "dx_drain"
