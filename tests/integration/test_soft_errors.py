"""Acceptance suite for the soft-error (SEU) resilience layer.

The tentpole contract: with SECDED-protected Q storage and TMR'd mode
registers, an RL campaign under a sustained Q-table upset rate plus a
mode-register strike completes with delivered fraction >= 0.95, the
scrubber's ``ecc.corrected`` ledger exactly matches the injected
single-bit upsets, and the decoded Q-values never show corruption.
With ``ecc_protect=False`` the same campaign measurably degrades: the
upsets reach the policy directly and saturate Q-values to the
fixed-point rail.  Soft errors must also preserve the repo's two
standing determinism contracts: fast == naive kernel, and a
killed-and-resumed run is bit-identical to an uninterrupted one.
"""

import shutil

from repro.core.qlearning import QTableStorage
from repro.sim import (
    ResumableRun,
    Simulator,
    SweepSpec,
    default_design_factories,
    scaled_config,
    synthesize_benchmark_trace,
)
from repro.sim.sweep import _eval_control_chaos
from repro.obs import TraceBuffer

# Sustained Q-table upsets plus a one-shot strike on router 4's mode
# register; seed 2 yields isolated single-bit upsets only (no two hits
# share a 39-bit word), so the corrected == injected identity is exact.
ACCEPTANCE_SPEC = "qtable@5e-4;mode@r4+1900"
ACCEPTANCE_SEED = 2

#: the fixed-point saturation rail — where sign/high-bit flips land
#: (the negative rail is the larger magnitude in two's complement)
Q_RAIL = -QTableStorage._WORD_MIN / QTableStorage._SCALE


def small_config(**overrides):
    overrides.setdefault("width", 3)
    overrides.setdefault("height", 3)
    return scaled_config(
        epoch_cycles=100, pretrain_cycles=1_500, warmup_cycles=300,
        **overrides,
    )


def soft_error_point(config, rate=0.05, cycles=800, seed=0):
    """The rl ``control_chaos`` point of ``config``'s SEU campaign."""
    spec = SweepSpec(
        config=config,
        kind="control_chaos",
        designs=("rl",),
        traffics=("uniform",),
        seeds=(seed,),
        rates=(rate,),
        cycles=cycles,
    )
    return spec.expand()[0]


def run_campaign(**overrides):
    overrides.setdefault("soft_error_spec", ACCEPTANCE_SPEC)
    point = soft_error_point(small_config(**overrides), seed=ACCEPTANCE_SEED)
    return _eval_control_chaos(point)["ledger"]


class TestAcceptance:
    def test_protected_rl_survives_seu_campaign(self):
        payload = run_campaign()
        assert payload["diagnosis"] is None
        assert payload["ecc"] is True
        assert payload["delivered_fraction"] >= 0.95
        assert payload["outstanding"] == 0
        # The campaign really fired: a sustained Q-table upset stream
        # plus exactly one mode-register strike.
        assert payload["injected"]["qtable"] > 50
        assert payload["injected"]["mode"] == 1
        assert payload["scrubs"] > 0
        # The defended contract, exactly: every injected upset was an
        # isolated single-bit error and every one was scrubbed away.
        assert payload["words_multi"] == 0
        assert payload["corrected"] == payload["words_single"]
        assert payload["corrected"] == payload["injected"]["qtable"]
        assert payload["quarantined_rows"] == 0
        # The mode strike was outvoted by the TMR majority.
        assert payload["mode_votes"] == 1
        # Decoded Q-values never saw the corruption.
        assert payload["max_abs_q"] < 100.0

    def test_no_ecc_degrades_measurably(self):
        protected = run_campaign()
        raw = run_campaign(ecc_protect=False)
        assert raw["ecc"] is False
        # Without SECDED nothing is correctable — the scrubber is blind.
        assert raw["corrected"] == 0
        assert raw["mode_votes"] == 0
        assert raw["injected"]["qtable"] > 50
        # The pinned degradation: upsets reach the policy's learned
        # state directly, and high-bit flips saturate Q-values to the
        # fixed-point rail — six orders of magnitude off the learned
        # range the protected run preserves.
        assert raw["max_abs_q"] == Q_RAIL
        assert raw["max_abs_q"] > 1_000 * protected["max_abs_q"]

    def test_scrub_disabled_lets_upsets_accumulate(self):
        """``--scrub-every 0``: each isolated single-bit upset is still
        hidden by SECDED decode-on-read, but without scrubbing they are
        never cleaned out of the words — eventually two land in the same
        word and the corruption becomes uncorrectable.  This is exactly
        why the scrub schedule exists."""
        payload = run_campaign(scrub_every=0)
        assert payload["scrubs"] == 0
        assert payload["corrected"] == 0
        assert payload["diagnosis"] is None
        assert payload["delivered_fraction"] >= 0.95
        # Accumulated upsets collided into uncorrectable words and the
        # garbage reached the policy — the scrubbed run stays clean.
        assert payload["max_abs_q"] > 100.0
        assert run_campaign(scrub_every=1)["max_abs_q"] < 100.0

    def test_quiet_spec_is_upset_free(self):
        """An empty clause list is a healthy platform: no model, no
        storage attach, no ECC ledger."""
        payload = run_campaign(soft_error_spec="")
        assert payload["injected"] == {}
        assert payload["scrubs"] == 0
        assert payload["delivered_fraction"] >= 0.95


class TestDeterminism:
    SPEC = "qtable@3e-4;mode@r2+900;burst@1200:4"

    def _classic(self, kernel, tracer=None):
        config = small_config(soft_error_spec=self.SPEC)
        policy = default_design_factories(0)["rl"]()
        sim = Simulator(config, policy, seed=0, tracer=tracer)
        sim.network.kernel = kernel
        sim.pretrain()
        policy.freeze()
        sim.warmup()
        trace = synthesize_benchmark_trace("swaptions", config, 400, 0)
        result = sim.measure_trace(trace, "swaptions")
        return sim, result

    def test_kernels_agree_under_soft_errors(self):
        fast_tracer, naive_tracer = TraceBuffer(), TraceBuffer()
        fast_sim, fast = self._classic("fast", fast_tracer)
        naive_sim, naive = self._classic("naive", naive_tracer)
        assert fast == naive
        assert fast_tracer.digest() == naive_tracer.digest()
        # The campaign actually fired, identically on both kernels.
        fast_injected, naive_injected = (
            {name: n for name, n in sim.metrics.scalars().items() if ".injected." in name}
            for sim in (fast_sim, naive_sim)
        )
        assert fast_injected == naive_injected
        assert fast_injected["softerror.injected.qtable"] > 0
        for name in ("ecc.scrubs", "ecc.corrected"):
            assert fast_sim.metrics.peek(name) == naive_sim.metrics.peek(name) > 0
        assert fast.packets_delivered > 0

    def test_kill_and_resume_bit_identical_with_soft_errors(self, tmp_path):
        config = small_config(soft_error_spec=self.SPEC)
        baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=400).run()

        run = ResumableRun(
            config, "rl", "swaptions", trace_cycles=400,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=350,
        )
        copies = []
        original_save = run.save

        def keep(path=None):
            saved = original_save(path)
            if saved is not None:
                copy = tmp_path / f"snap_{len(copies)}.ckpt"
                shutil.copy(saved, copy)
                copies.append(copy)
            return saved

        run.save = keep
        uninterrupted = run.run()
        assert uninterrupted == baseline
        assert len(copies) >= 3
        # Resume from an early, a middle, and the last mid-run snapshot:
        # the SEU master RNG, the ECC word arrays, and the TMR copies
        # must all restore bit-exactly for these to agree.
        for copy in (copies[0], copies[len(copies) // 2], copies[-2]):
            resumed = ResumableRun.resume(copy).run()
            assert resumed == baseline
