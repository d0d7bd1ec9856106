import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from emgactions.dataset import Recording, segment_channel
from emgactions.features.assemble import (
    FeatureConfig,
    assemble_features,
    extract_feature_matrix,
    registry_for,
)
from emgactions.features.autoregressive import PoleOnGridError, ar_psd, band_powers, burg_ar
from emgactions.features.crosschannel import DEFAULT_PAIRS, compute_ics
from emgactions.features.localbinary import WindowTooLongError, lbp_features
from emgactions.features.registry import BadIndexError
from emgactions.features.spectral import lmf_features, power_spectrum, spectral_moments
from emgactions.features.timedomain import tds


def make_trial(seed=0, channels=8, samples=64):
    return np.random.default_rng(seed).normal(0, 100, (channels, samples))


class TestRegistry:
    def test_total_size(self):
        reg = registry_for(FeatureConfig())
        assert len(reg) == 276

    def test_block_sizes(self):
        reg = registry_for(FeatureConfig())
        assert len(reg.modality_indices("tds")) == 32
        assert len(reg.modality_indices("ics")) == 12
        assert len(reg.modality_indices("lmf")) == 136
        assert len(reg.modality_indices("sbp")) == 80
        assert len(reg.modality_indices("lbp")) == 16

    def test_anchor_names(self):
        reg = registry_for(FeatureConfig())
        assert reg[1].name == "tds_ch1_mean"
        assert reg[7].name == "tds_ch2_skewness"
        assert reg[17].name == "tds_ch5_mean"
        assert reg[23].name == "tds_ch6_skewness"
        assert reg[25].name == "tds_ch7_mean"
        assert reg[29].name == "tds_ch8_mean"
        assert reg[32].name == "tds_ch8_kurtosis"
        assert reg[33].name == "ics_ch3_ch4"
        assert reg[44].name == "ics_ch5_ch6"
        assert reg[45].name == "lmf_ch1_f1"
        assert reg[61].name == "lmf_ch1_f17"
        assert reg[180].name == "lmf_ch8_f17"
        assert reg[181].name == "sbp_ch1_band1"
        assert reg[260].name == "sbp_ch8_band10"
        assert reg[261].name == "lbp_ch1_le127"
        assert reg[276].name == "lbp_ch8_gt127"

    def test_names_are_unique_and_ordered(self):
        reg = registry_for(FeatureConfig())
        names = reg.names()
        assert len(names) == 276
        assert len(set(names)) == 276
        assert [reg[i].name for i in range(1, 277)] == list(names)

    def test_indices_partition(self):
        reg = registry_for(FeatureConfig())
        merged = []
        for mod in ("tds", "ics", "lmf", "sbp", "lbp"):
            merged.extend(reg.modality_indices(mod))
        assert merged == list(range(1, 277))

    def test_ics_pairs_recorded(self):
        reg = registry_for(FeatureConfig())
        assert reg[33].pair == (3, 4)
        assert reg[38].pair == (1, 2)
        assert reg[43].pair == (4, 7)
        pairs = [reg[i].pair for i in reg.modality_indices("ics")]
        assert pairs == list(DEFAULT_PAIRS)

    def test_channel_indices_include_pair_endpoints(self):
        reg = registry_for(FeatureConfig())
        ch1 = [d.index for d in reg if d.touches_channel(1)]
        assert set(ch1) & set(reg.modality_indices("ics")) == {36, 37, 38}
        assert len(ch1) == 4 + 3 + 17 + 10 + 2
        ch4 = [d.index for d in reg if d.touches_channel(4)]
        assert set(ch4) & set(reg.modality_indices("ics")) == {33, 34, 36, 43}
        assert len(ch4) == 4 + 4 + 17 + 10 + 2

    def test_touches_channel(self):
        reg = registry_for(FeatureConfig())
        assert reg[33].touches_channel(3)
        assert reg[33].touches_channel(4)
        assert not reg[33].touches_channel(5)
        assert reg[1].touches_channel(1)
        assert not reg[1].touches_channel(2)

    def test_bad_index(self):
        reg = registry_for(FeatureConfig())
        for bad in (0, -1, 277, 1000):
            with pytest.raises(BadIndexError):
                reg[bad]

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(
                FeatureConfig(channels=4, pairs=((3, 4), (1, 2), (2, 4))), id="4ch-3pairs"
            ),
            pytest.param(FeatureConfig(n_bands=5, lbp_threshold=100), id="bands5-lbp100"),
            pytest.param(FeatureConfig(window=64), id="window64"),
            pytest.param(
                FeatureConfig(
                    channels=4,
                    window=64,
                    n_bands=5,
                    lbp_threshold=100,
                    pairs=((3, 4), (2, 4), (1, 2)),
                ),
                id="all",
            ),
        ],
    )
    def test_registry_follows_config(self, cfg):
        # Each family computed straight from its extractor must sit where the
        # registry puts it: same width, same position, same channel or pair.
        channels = cfg.channels
        trial = make_trial(seed=2, channels=channels, samples=128)
        segs = segment_channel(trial, cfg.window or trial.shape[-1])  # (M, W, L)

        def per_channel(values):
            return values.mean(axis=1).ravel()

        expected = {
            "tds": per_channel(tds(segs)),
            "ics": compute_ics(trial, cfg.pairs, window=cfg.window),
            "lmf": per_channel(lmf_features(spectral_moments(power_spectrum(segs)))),
            "sbp": per_channel(
                band_powers(ar_psd(burg_ar(segs, cfg.ar_order), cfg.psd_grid), cfg.n_bands)
            ),
            "lbp": per_channel(lbp_features(segs, cfg.lbp_window, cfg.lbp_threshold)),
        }
        reg = registry_for(cfg)
        vec = assemble_features(trial, cfg)
        assert vec.shape == (len(reg),)
        start = 1
        for mod, values in expected.items():
            indices = reg.modality_indices(mod)
            assert indices == tuple(range(start, start + len(values)))
            assert np.allclose(vec[np.array(indices) - 1], values, rtol=1e-12, atol=0)
            start += len(values)
        assert start == len(reg) + 1
        assert [reg[i].pair for i in reg.modality_indices("ics")] == list(cfg.pairs)
        lbp = reg.modality_indices("lbp")
        assert [reg[i].channel for i in lbp] == [c for c in range(1, channels + 1) for _ in (0, 1)]
        assert reg[lbp[-1]].name == f"lbp_ch{channels}_gt{cfg.lbp_threshold}"
        assert reg[lbp[-2]].name == f"lbp_ch{channels}_le{cfg.lbp_threshold}"
        assert reg[reg.modality_indices("sbp")[-1]].name == f"sbp_ch{channels}_band{cfg.n_bands}"


class TestAssemble:
    def test_vector_length_matches_registry(self):
        cfg = FeatureConfig()
        vec = assemble_features(make_trial(), cfg)
        assert vec.shape == (len(registry_for(cfg)),)
        assert np.all(np.isfinite(vec))

    @pytest.mark.parametrize("shape, channels", [((8, 64), 8), ((2, 4, 64), 4), ((64,), 0)])
    def test_channel_count_must_match_config(self, shape, channels):
        # Unchecked, 8 channels under a 4-channel config gave 265 values
        # against a 133-column registry.
        cfg = FeatureConfig(channels=4 if channels == 8 else 8, pairs=((1, 2),))
        trials = np.random.default_rng(0).normal(0, 100, shape)
        message = f"trials have {channels} channels but config.channels = {cfg.channels}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assemble_features(trials, cfg)
        if channels:
            fits = replace(cfg, channels=channels)
            assert assemble_features(trials, fits).shape[-1] == len(registry_for(fits))

    def test_deterministic(self):
        cfg = FeatureConfig()
        a = assemble_features(make_trial(seed=5), cfg)
        b = assemble_features(make_trial(seed=5), cfg)
        assert np.array_equal(a, b)

    def test_all_zero_pattern_finite(self):
        cfg = FeatureConfig()
        vec = assemble_features(np.zeros((8, 32)), cfg)
        assert np.all(np.isfinite(vec))
        reg = registry_for(cfg)
        tds_vals = vec[np.array(reg.modality_indices("tds")) - 1]
        assert np.array_equal(tds_vals, np.zeros(32))

    def test_block_placement_against_direct_extractors(self):
        cfg = FeatureConfig()
        trial = make_trial(seed=3)
        vec = assemble_features(trial, cfg)
        reg = registry_for(cfg)
        assert np.allclose(vec[0:4], tds(trial[0]))
        assert np.allclose(vec[28:32], tds(trial[7]))
        ics_lo = reg.modality_indices("ics")[0] - 1
        assert np.allclose(vec[ics_lo : ics_lo + 12], compute_ics(trial))
        lbp_lo = reg.modality_indices("lbp")[0] - 1
        assert np.allclose(vec[lbp_lo : lbp_lo + 2], lbp_features(trial[0]))

    def test_channel_swap_permutes_blocks(self):
        # swapping channels 1 and 2 swaps their per-channel blocks and, because
        # the pair list is closed under that swap, permutes the ics block
        cfg = FeatureConfig()
        trial = make_trial(seed=9)
        swapped = trial[[1, 0, 2, 3, 4, 5, 6, 7]]
        reg = registry_for(cfg)
        a = assemble_features(trial, cfg)
        b = assemble_features(swapped, cfg)

        def block(vals, mod, ch):
            idx = [i - 1 for i in reg.modality_indices(mod) if reg[i].channel == ch]
            return vals[idx]

        for mod in ("tds", "lmf", "sbp", "lbp"):
            assert np.allclose(block(a, mod, 1), block(b, mod, 2))
            assert np.allclose(block(a, mod, 2), block(b, mod, 1))
            assert np.allclose(block(a, mod, 3), block(b, mod, 3))
        # ics: (1,4)<->(2,4), (1,3)<->(2,3), rest fixed
        assert np.isclose(a[35], b[33])
        assert np.isclose(a[33], b[35])
        assert np.isclose(a[36], b[34])
        assert np.isclose(a[34], b[36])
        assert np.isclose(a[37], b[37])
        assert np.isclose(a[32], b[32])
        assert np.allclose(a[38:44], b[38:44])

    def test_windowed_average_equals_mean_of_halves(self):
        cfg_full = FeatureConfig()
        cfg_win = FeatureConfig(window=40)
        trial = make_trial(seed=13, samples=80)
        averaged = assemble_features(trial, cfg_win)
        halves = 0.5 * (
            assemble_features(trial[:, :40], cfg_full)
            + assemble_features(trial[:, 40:], cfg_full)
        )
        assert np.allclose(averaged, halves, rtol=1e-10, atol=1e-10)

    def test_error_carries_channel_context(self):
        cfg = FeatureConfig()
        with pytest.raises(WindowTooLongError, match="channel 1 lbp"):
            assemble_features(np.ones((8, 7)), cfg)

    def test_error_names_subject_action_trial_channel(self, monkeypatch):
        # one all-zero channel fits a zero-noise AR model; a stand-in ar_psd
        # fails on exactly that model, as a near-unstable fit would
        from emgactions.features import assemble

        trials = np.stack([make_trial(seed=t) for t in range(4)])
        trials[2, 5] = 0.0
        recordings = [Recording(trials[:1], 1, 1), Recording(trials, 3, 12)]
        real = assemble.ar_psd

        def ar_psd(model, grid_size=100):
            if np.any(np.asarray(model.noise_variance) == 0.0):
                raise PoleOnGridError("AR denominator vanished on the frequency grid")
            return real(model, grid_size)

        monkeypatch.setattr(assemble, "ar_psd", ar_psd)
        with pytest.raises(PoleOnGridError) as exc:
            extract_feature_matrix(recordings, FeatureConfig())
        assert str(exc.value) == (
            "subject 3 action 12 trial 3 channel 6 sbp: "
            "AR denominator vanished on the frequency grid"
        )

    def test_extract_feature_matrix_shapes(self):
        cfg = FeatureConfig()
        blocks = [np.stack([make_trial(seed=3 * r + t) for t in range(3)]) for r in range(2)]
        recordings = [Recording(blocks[0], 1, 2), Recording(blocks[1], 4, 3)]
        X, y, subjects, trials = extract_feature_matrix(recordings, cfg)
        assert X.shape == (6, 276)
        assert y.tolist() == [2, 2, 2, 3, 3, 3]
        assert subjects.tolist() == [1, 1, 1, 4, 4, 4]
        assert trials.tolist() == [1, 2, 3, 1, 2, 3]
        assert np.allclose(X[4], assemble_features(blocks[1][1], cfg))
        assert np.array_equal(X[3:], assemble_features(blocks[1], cfg))

    def test_extract_feature_matrix_one_shot_generator(self):
        cfg = FeatureConfig()
        recordings = [
            Recording(np.stack([make_trial(seed=4 * r + t) for t in range(r + 1)]), r, 5 - r)
            for r in range(1, 4)
        ]
        expected = extract_feature_matrix(recordings, cfg)
        streamed = extract_feature_matrix((rec for rec in recordings), cfg)
        for a, b in zip(expected, streamed):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_extract_feature_matrix_releases_each_recording(self):
        refs, alive = [], []

        def make(label):
            trials = np.stack([make_trial(seed=label * 10 + t) for t in range(2)])
            refs.append(weakref.ref(trials))
            return Recording(trials, 1, label)

        def stream():
            for label in (1, 2, 3):
                # The consumer holds the previous recording, if anything does.
                alive.append(bool(refs) and refs[-1]() is not None)
                yield make(label)

        y = extract_feature_matrix(stream(), FeatureConfig())[1]
        assert alive == [False, False, False]
        assert y.tolist() == [1, 1, 2, 2, 3, 3]
