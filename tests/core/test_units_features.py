"""Tests for unit helpers and feature presets."""

from repro.core import units
from repro.core.features import (
    DEFAULT_SWA_WINDOW,
    MEGASCALE,
    MEGASCALE_ISO_BATCH,
    MEGATRON_LM,
    ablation_sequence,
)


def test_byte_units():
    assert units.GB == 1e9
    assert units.GiB == 1024**3
    assert units.fmt_bytes(2.5e9) == "2.50 GB"
    assert units.fmt_bytes(512) == "512 B"


def test_rate_units_are_bytes_per_second():
    # Datasheets quote bits/s; internals are bytes/s.
    assert 400 * units.Gbps == 50e9
    assert units.fmt_rate(25e9) == "200.0 Gbps"


def test_time_formatting():
    assert units.fmt_time(5e-7) == "0.5 us"
    assert units.fmt_time(0.005) == "5.0 ms"
    assert units.fmt_time(90) == "1.5 min"
    assert "h" in units.fmt_time(7200)
    assert "days" in units.fmt_time(3 * 86400)


def test_flops_formatting():
    assert units.fmt_flops(312e12) == "312.0 TFLOP/s"
    assert "PFLOP/s" in units.fmt_flops(2e15)


def test_presets_are_distinct():
    assert MEGATRON_LM != MEGASCALE
    assert MEGASCALE.lamb and not MEGASCALE_ISO_BATCH.lamb
    assert MEGASCALE.sliding_window == DEFAULT_SWA_WINDOW


def test_megatron_baseline_everything_off():
    for flag in (
        "parallel_block",
        "lamb",
        "tp_overlap",
        "pp_overlap",
        "dp_overlap",
        "flash_attention",
        "fused_kernels",
        "async_data_pipeline",
        "tree_based_loading",
        "clean_codepath",
    ):
        assert getattr(MEGATRON_LM, flag) is False, flag
    assert MEGATRON_LM.sliding_window is None


def test_megascale_everything_on():
    for flag in (
        "parallel_block",
        "lamb",
        "tp_overlap",
        "pp_overlap",
        "dp_overlap",
        "flash_attention",
        "fused_kernels",
        "async_data_pipeline",
        "tree_based_loading",
        "clean_codepath",
    ):
        assert getattr(MEGASCALE, flag) is True, flag


def test_ablation_sequence_is_cumulative():
    steps = ablation_sequence()
    assert len(steps) == 9
    assert steps[0][1] == MEGATRON_LM.with_options(name="ablation")
    # Each step only turns features on, never off.
    flags = [
        "parallel_block",
        "lamb",
        "tp_overlap",
        "pp_overlap",
        "dp_overlap",
        "flash_attention",
        "fused_kernels",
        "async_data_pipeline",
        "tree_based_loading",
        "clean_codepath",
    ]
    for (_, prev, _), (_, cur, _) in zip(steps, steps[1:]):
        for flag in flags:
            if getattr(prev, flag):
                assert getattr(cur, flag), flag
    # The last step scales the batch (LAMB row).
    assert steps[-1][2] == 3
    assert all(scale == 1 for _, _, scale in steps[:-1])


def test_describe_lists_enabled_features():
    text = MEGASCALE.describe()
    for token in ("ptb", "lamb", "tp-ov", "flash"):
        assert token in text


def test_with_options_round_trip():
    fs = MEGATRON_LM.with_options(tp_overlap=True)
    assert fs.tp_overlap
    assert fs.pp_overlap is False
