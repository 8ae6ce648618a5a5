"""LinkModel: presets, spec parsing, validation, seed derivation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.network.link import (
    _SPEC_KEYS,
    PRESET_CONSTANTS,
    LinkModel,
    derive_network_seed,
    parse_link_spec,
)
from repro.obs.spans import SpanCosts

#: What the ``--network`` grammar is made of — presets, keys, values,
#: suffixes, separators — so random specs reach its deep paths, mixed
#: with arbitrary text.
_SPEC_FRAGMENTS = st.sampled_from(
    ["ideal", *sorted(PRESET_CONSTANTS), *sorted(_SPEC_KEYS)]
    + ["=", ",", " ", "%", "s", "ms", "us", "ns", "KB/s", "MB", "gb/s"]
    + ["0", "1", "-1", "0.5", "1e-3", "1e400", "-0", "nan", "inf", "99" * 3000]
)
_SPEC_VALUES = st.builds(
    "{}{}".format,
    st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=3)),
    st.sampled_from(["", "%", "s", "ms", "us", "ns", "KB/s", "MB", "gb/s"]),
)
SPECS = st.one_of(
    st.text(),
    st.lists(st.one_of(_SPEC_FRAGMENTS, st.text(max_size=3)), max_size=12).map("".join),
    # Well-formed ``key=value`` lists, with or without a preset first.
    st.builds(
        lambda preset, pairs: ",".join(preset + [f"{key}={value}" for key, value in pairs]),
        st.lists(st.sampled_from(["ideal", *sorted(PRESET_CONSTANTS)]), max_size=1),
        st.lists(st.tuples(st.sampled_from(sorted(_SPEC_KEYS)), _SPEC_VALUES), max_size=4),
    ),
)


class TestLinkModel:
    def test_ideal_defaults(self):
        link = LinkModel.ideal()
        assert link.is_ideal
        assert link.per_byte_s == 0.0
        assert link.serialization_s(4096) == 0.0

    def test_presets_read_canonical_constants(self):
        for name, constants in PRESET_CONSTANTS.items():
            link = LinkModel.from_preset(name)
            assert link.overhead_s == constants["overhead_s"]
            assert link.bandwidth == constants["bandwidth"]
            assert link.latency_s == constants["latency_s"]
            assert link.access_s == constants["access_s"]
            assert not link.is_ideal

    def test_preset_overrides(self):
        link = LinkModel.from_preset("ethernet_1992", loss=0.1, timeout_s=2e-3)
        assert link.loss == 0.1
        assert link.timeout_s == 2e-3
        assert link.bandwidth == PRESET_CONSTANTS["ethernet_1992"]["bandwidth"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown link preset"):
            LinkModel.from_preset("token_ring")

    def test_serialization_time(self):
        link = LinkModel(bandwidth=1e6)
        assert link.serialization_s(1000) == pytest.approx(1e-3)
        assert link.per_byte_s == pytest.approx(1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_s": -1.0},
            {"loss": 1.0},
            {"loss": -0.1},
            {"max_retries": -1},
            {"loss": 0.5, "timeout_s": 0.0},
            {"latency_s": float("nan")},
            {"jitter_s": float("nan")},
            {"bandwidth": float("nan")},
            {"bandwidth": float("inf")},
            {"timeout_s": float("inf")},
            {"overhead_s": float("nan")},
            {"access_s": float("inf")},
            {"loss": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LinkModel(**kwargs)

    def test_to_dict_roundtrip(self):
        link = LinkModel.ethernet_1992(loss=0.05, jitter_s=1e-4)
        assert LinkModel(**link.to_dict()) == link


class TestParseLinkSpec:
    def test_bare_preset(self):
        assert parse_link_spec("ethernet_1992") == LinkModel.ethernet_1992()
        assert parse_link_spec("ideal") == LinkModel.ideal()

    def test_key_values_with_suffixes(self):
        link = parse_link_spec("latency=200us,bw=100MB/s,loss=1%,jitter=50us")
        assert link.latency_s == pytest.approx(200e-6)
        assert link.bandwidth == pytest.approx(100e6)
        assert link.loss == pytest.approx(0.01)
        assert link.jitter_s == pytest.approx(50e-6)

    def test_preset_plus_overrides(self):
        link = parse_link_spec("ethernet_1992,loss=0.02,timeout=5ms,retries=3")
        assert link.overhead_s == 1e-3
        assert link.loss == 0.02
        assert link.timeout_s == pytest.approx(5e-3)
        assert link.max_retries == 3

    def test_bare_numbers_are_base_units(self):
        link = parse_link_spec("latency=0.001,bw=1250000")
        assert link.latency_s == 1e-3
        assert link.bandwidth == 1.25e6

    def test_preset_must_come_first(self):
        with pytest.raises(ConfigError, match="must come first"):
            parse_link_spec("loss=1%,ethernet_1992")

    def test_second_preset_rejected(self):
        with pytest.raises(ConfigError, match="second --network preset 'ideal'"):
            parse_link_spec("ethernet_1992,ideal")

    @pytest.mark.parametrize(
        "spec, token",
        [
            ("latency=1ms,latency=2ms", "latency=2ms"),
            ("bw=1MB/s,loss=1%,bandwidth=2MB/s", "bandwidth=2MB/s"),
            ("ethernet_1992,max_retries=3,retries=3", "retries=3"),
        ],
    )
    def test_repeated_key_or_alias_rejected(self, spec, token):
        with pytest.raises(ConfigError, match=f"repeated --network key '{token}'"):
            parse_link_spec(spec)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown --network key"):
            parse_link_spec("warp=9")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad --network value"):
            parse_link_spec("latency=fast")

    @pytest.mark.parametrize(
        "spec", ["latency=nan", "bw=nan", "timeout=nanms", "latency=1e400", "jitter=inf"]
    )
    def test_non_finite_value_rejected(self, spec):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_link_spec(spec)

    @settings(max_examples=400, deadline=None)
    @given(SPECS)
    def test_any_spec_parses_or_raises_config_error(self, spec):
        """Whatever the user types: a link, or the one error the CLI
        reports as a usage error — never any other exception."""
        try:
            link = parse_link_spec(spec)
        except ConfigError:
            return
        assert isinstance(link, LinkModel)


class TestNetworkSeed:
    def test_deterministic(self):
        link = LinkModel.ethernet_1992(loss=0.05)
        assert derive_network_seed(1, "LI", link) == derive_network_seed(1, "LI", link)

    def test_distinct_across_inputs(self):
        link = LinkModel.ethernet_1992(loss=0.05)
        seeds = {
            derive_network_seed(1, "LI", link),
            derive_network_seed(2, "LI", link),
            derive_network_seed(1, "LU", link),
            derive_network_seed(1, "LI", link.with_options(loss=0.06)),
            derive_network_seed(None, "LI", link),
        }
        assert len(seeds) == 5

    def test_none_seed_is_zero_seed(self):
        link = LinkModel.ideal()
        assert derive_network_seed(None, "LI", link) == derive_network_seed(0, "LI", link)


class TestSpanCostPresets:
    """The presets' historical literals, read through ``PRESET_CONSTANTS``."""

    def test_ethernet_preset_matches_historical_literals(self):
        assert SpanCosts.ethernet_1992() == SpanCosts(
            message_s=1e-3,
            byte_s=8e-7,  # 1 / 1.25e6 exactly, in IEEE doubles
            access_s=5e-8,
            diff_create_s=5e-4,
            diff_apply_s=2e-4,
        )

    def test_modern_preset_matches_historical_literals(self):
        assert SpanCosts.modern_cluster() == SpanCosts(
            message_s=5e-6, byte_s=1e-10, access_s=1e-9, diff_create_s=2e-6, diff_apply_s=1e-6
        )
