"""Sampler behavior: weights, determinism, serialization, truncation."""

import json
import math

import numpy as np
import pytest

from cascademc import (
    DispatchCache,
    OutageModel,
    SampleSet,
    SisConfig,
    amplify,
    run_campaign,
    simulate_path,
    step,
)
from cascademc.cascade import SystemState
from cascademc.fixtures import fixture_names, load_fixture
from cascademc.masks import ordinals_from_mask
from cascademc.rng import PathStream
from cascademc import sampling
from cascademc.sampling import _ROW_CHUNK


FIXTURES = {name: load_fixture(name) for name in fixture_names()}


def campaign(name, n=256, eta=1.0, seed=11, **kw):
    fx = FIXTURES[name]
    cfg = SisConfig(eta=eta, p_max=fx.config.p_max, max_stages=fx.config.max_stages)
    return run_campaign(fx.network, fx.model, cfg, n, seed=seed, **kw)


def test_sis_config_validation():
    with pytest.raises(ValueError, match="eta"):
        SisConfig(eta=0.5)
    with pytest.raises(ValueError, match="p_max"):
        SisConfig(p_max=1.0)
    with pytest.raises(ValueError, match="p_max"):
        SisConfig(p_max=0.0)
    with pytest.raises(ValueError, match="max_stages"):
        SisConfig(max_stages=0)


def test_amplify_caps_and_preserves_zero():
    cfg = SisConfig(eta=4.0, p_max=0.9)
    out = amplify(np.array([0.0, 0.1, 0.5]), cfg)
    assert out.tolist() == [0.0, pytest.approx(0.4), 0.9]


def test_cap_below_model_probability_rejected():
    fx = FIXTURES["ring3"]
    cfg = SisConfig(eta=1.0, p_max=0.25)  # model p1 is 0.5
    with pytest.raises(ValueError, match="below the model"):
        run_campaign(fx.network, fx.model, cfg, 4, seed=0)


def test_eta_one_weights_are_exactly_one():
    s = campaign("ring3", n=512, eta=1.0)
    assert np.all(s.weight == 1.0)
    assert np.all(s.log_p_c == s.log_q_c)


def test_weight_identity_against_log_columns():
    for name in ("ring3", "par3", "duo2"):
        s = campaign(name, n=512, eta=1.5)
        expect = np.exp(s.log_p_c - s.log_q_c)
        err = np.abs(s.weight - expect) / np.maximum(np.abs(expect), 1e-300)
        assert float(err.max()) <= 1e-12, name


def test_weights_multiply_per_step_records():
    fx = FIXTURES["ring3"]
    cfg = SisConfig(eta=1.5, p_max=0.75, max_stages=64)
    path = simulate_path(fx.network, fx.model, cfg, path_index=3, seed=5)
    by_steps = math.fsum(r.log_p_hat for r in path.records) - math.fsum(
        r.log_q_hat for r in path.records
    )
    assert path.weight == pytest.approx(math.exp(by_steps), rel=1e-12)


def test_simulate_path_matches_campaign_entry():
    fx = FIXTURES["bridge6"]
    cfg = SisConfig(eta=2.0, p_max=0.9, max_stages=64)
    s = run_campaign(fx.network, fx.model, cfg, 32, seed=17)
    for idx in (0, 7, 31):
        p = simulate_path(fx.network, fx.model, cfg, path_index=idx, seed=17)
        assert p.shed_mw == s.shed_mw[idx]
        assert p.weight == s.weight[idx]
        assert p.log_p_c == s.log_p_c[idx]
        assert p.n == s.n[idx]


def test_block_split_is_bitwise_identical():
    full = campaign("par3", n=200, eta=2.0, seed=3)
    a = campaign("par3", n=200, eta=2.0, seed=3, workers=1)
    assert np.array_equal(full.shed_mw, a.shed_mw)
    assert np.array_equal(full.weight, a.weight)
    assert full.final_masks == a.final_masks


def test_worker_count_is_bitwise_identical():
    one = campaign("ring3", n=120, eta=2.0, seed=9, workers=1)
    three = campaign("ring3", n=120, eta=2.0, seed=9, workers=3)
    assert np.array_equal(one.shed_mw, three.shed_mw)
    assert np.array_equal(one.weight, three.weight)
    assert np.array_equal(one.log_p_c, three.log_p_c)
    assert np.array_equal(one.n, three.n)
    assert one.final_masks == three.final_masks


def test_record_paths_round_trip_states():
    fx = FIXTURES["ring3"]
    cfg = SisConfig(eta=2.0, p_max=0.75, max_stages=64)
    s = run_campaign(fx.network, fx.model, cfg, 64, seed=2, record_paths=True)
    paths = s.paths
    assert len(paths) == 64
    for p in paths:
        # final state's mask matches the summary column
        assert p.states[-1].mask == s.final_masks[p.path_index]
        # non-terminal steps trip at least one component each
        masks = [st.mask for st in p.states]
        for a, b in zip(masks, masks[1:]):
            assert b & a == a  # absorbing
        if not p.truncated:
            assert len(masks) < 2 or masks[-1] == masks[-2]


def test_records_unavailable_without_flag():
    s = campaign("ring3", n=8)
    with pytest.raises(ValueError, match="record_paths"):
        _ = s.paths


def test_record_paths_rejected_with_workers():
    fx = FIXTURES["ring3"]
    with pytest.raises(ValueError, match="workers"):
        run_campaign(
            fx.network, fx.model, fx.config, 64, seed=2, workers=2,
            record_paths=True,
        )


def test_prefix_equals_shorter_campaign():
    big = campaign("duo2", n=300, eta=2.0, seed=21)
    small = campaign("duo2", n=120, eta=2.0, seed=21)
    pre = big.prefix(120)
    assert np.array_equal(pre.shed_mw, small.shed_mw)
    assert np.array_equal(pre.weight, small.weight)
    assert pre.meta["n_samples"] == 120
    with pytest.raises(ValueError, match="prefix"):
        big.prefix(0)
    with pytest.raises(ValueError, match="prefix"):
        big.prefix(301)


def test_truncation_flags_paths_that_hit_stage_bound():
    fx = FIXTURES["duo2"]
    # duo2's intact state keeps both lines at p1 = 0.25 under eta = 2 the
    # proposal is 0.5 per line per stage; max_stages = 1 forces immediate
    # truncation whenever the single allowed step trips nothing
    cfg = SisConfig(eta=2.0, p_max=0.75, max_stages=1)
    s = run_campaign(fx.network, fx.model, cfg, 256, seed=4)
    assert s.n_truncated > 0
    assert np.all(s.n[s.truncated] == 1)
    # truncated paths keep their partial products finite
    assert np.all(np.isfinite(s.log_p_c[s.truncated]))


def test_empty_entry_step_is_single_stage_path():
    fx = FIXTURES["ring3"]
    s = campaign("ring3", n=2048, eta=1.0, seed=6)
    none_tripped = np.asarray(
        [m == 0 for m in s.final_masks], dtype=bool
    ) & ~s.truncated
    assert none_tripped.any()
    assert np.all(s.n[none_tripped] == 1)
    # survival probability of the whole entry step: (1 - p0)^3
    expect = math.log((1.0 - fx.model.p0) ** 3)
    assert np.allclose(s.log_p_c[none_tripped], expect, rtol=1e-12)


def test_step_function_hand_driven():
    fx = FIXTURES["ring3"]
    net, model = fx.network, fx.model
    cfg = SisConfig(eta=1.0, p_max=0.75, max_stages=64)
    cache = DispatchCache(net)
    stream = PathStream(seed=123, path_index=0)
    state = SystemState.intact(net)
    new, rec = step(net, state, model, cfg, stream, cache)
    assert rec.stage == 1
    assert new.stage == 2
    if rec.tripped:
        assert new.mask == sum(1 << k for k in rec.tripped)
    else:
        assert new.mask == 0
    assert rec.p_hat == rec.q_hat  # eta = 1


def test_step_terminal_state_has_unit_probability():
    fx = FIXTURES["chain4"]
    net = fx.network
    model = OutageModel(p0=0.125, p1=0.5, p_e=0.0, p_max=0.75)
    cfg = SisConfig(eta=2.0, p_max=0.75, max_stages=64)
    cache = DispatchCache(net)
    # all components tripped: nothing left to sample
    state = SystemState(mask=0b111, stage=2, n_components=3)
    stream = PathStream(seed=1, path_index=0)
    new, rec = step(net, state, model, cfg, stream, cache)
    assert rec.p_hat == 1.0 and rec.q_hat == 1.0
    assert new.mask == state.mask and new.stage == 3


def test_campaign_argument_validation():
    fx = FIXTURES["ring3"]
    with pytest.raises(ValueError, match="n_samples"):
        run_campaign(fx.network, fx.model, fx.config, 0, seed=1)
    with pytest.raises(ValueError, match="workers"):
        run_campaign(fx.network, fx.model, fx.config, 4, seed=1, workers=0)


def test_ndjson_round_trip(tmp_path):
    s = campaign("bridge6", n=128, eta=2.0, seed=13)
    path = tmp_path / "samples.ndjson"
    s.write(path)
    back = SampleSet.read(path)
    assert np.array_equal(back.shed_mw, s.shed_mw)
    assert np.array_equal(back.weight, s.weight)
    assert np.array_equal(back.log_p_c, s.log_p_c)
    assert np.array_equal(back.log_q_c, s.log_q_c)
    assert np.array_equal(back.n, s.n)
    assert np.array_equal(back.truncated, s.truncated)
    assert back.final_masks == s.final_masks
    assert back.meta == s.meta
    # serialization is deterministic
    path2 = tmp_path / "again.ndjson"
    s.write(path2)
    assert path.read_bytes() == path2.read_bytes()


def reference_write(ss, path):
    """The format's definition: the header, then json.dumps of one dict per
    path row."""
    with open(path, "w") as fh:
        header = {"kind": "sample_set", "version": 1}
        header.update(ss.meta)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(len(ss)):
            row = {
                "n": int(ss.n[i]),
                "shed_mw": float(ss.shed_mw[i]),
                "log_p_c": float(ss.log_p_c[i]),
                "log_q_c": float(ss.log_q_c[i]),
                "weight": float(ss.weight[i]),
                "truncated": bool(ss.truncated[i]),
                "tripped": list(ordinals_from_mask(ss.final_masks[i])),
            }
            fh.write(json.dumps(row) + "\n")


def edge_sample_set(rows=_ROW_CHUNK + 37):
    """Rows cycling through float edge values and case300-size masks, over
    more than one write block."""
    edge = [-0.0, 0.0, 5e-324, 1e22, math.inf, -math.inf, math.nan, 0.1, -1.5e-7]
    col = lambda shift: np.array([edge[(i + shift) % len(edge)] for i in range(rows)])
    masks = [0, 1 << 411, (1 << 411) | (1 << 3) | 1, 1 << 7]
    return SampleSet(
        meta={"case": "hand", "eta": 2.0, "n_components": 412, "n_samples": rows, "seed": 1},
        n=np.arange(rows, dtype=np.int32) % 5 + 1,
        shed_mw=col(0),
        log_p_c=col(1),
        log_q_c=col(2),
        weight=col(5),
        truncated=np.arange(rows) % 3 == 0,
        final_masks=[masks[i % len(masks)] for i in range(rows)],
    )


@pytest.mark.parametrize("memo", [sampling._READ_MEMO, 3])
def test_write_matches_reference_bytes(tmp_path, monkeypatch, memo):
    # a memo smaller than the file's 180 distinct rows must not change the read
    monkeypatch.setattr(sampling, "_READ_MEMO", memo)
    s = edge_sample_set()
    s.write(tmp_path / "fast.ndjson")
    reference_write(s, tmp_path / "reference.ndjson")
    assert (tmp_path / "fast.ndjson").read_bytes() == (tmp_path / "reference.ndjson").read_bytes()
    back = SampleSet.read(tmp_path / "fast.ndjson")
    # NaN-aware and sign-aware column equality
    for name in ("shed_mw", "log_p_c", "log_q_c", "weight"):
        assert getattr(back, name).tobytes() == getattr(s, name).tobytes(), name
    assert np.array_equal(back.n, s.n)
    assert np.array_equal(back.truncated, s.truncated)
    assert back.final_masks == s.final_masks


def test_read_rejects_foreign_files(tmp_path):
    bad = tmp_path / "other.ndjson"
    bad.write_text('{"kind": "something_else"}\n')
    with pytest.raises(ValueError, match="not a sample-set"):
        SampleSet.read(bad)
    bad.write_text("")
    with pytest.raises(ValueError, match="not a sample-set"):
        SampleSet.read(bad)


def _set_version(lines):
    header = json.loads(lines[0])
    header["version"] = 2
    lines[0] = json.dumps(header, sort_keys=True) + "\n"


def _drop_key(lines):
    row = json.loads(lines[3])
    del row["weight"]
    lines[3] = json.dumps(row) + "\n"


def _add_key(lines):
    row = json.loads(lines[3])
    row["extra"] = 1
    lines[3] = json.dumps(row) + "\n"


@pytest.mark.parametrize(
    "edit,fragment",
    [
        (_set_version, "version 2"),
        (_drop_key, "line 4 has keys"),
        (_add_key, "line 4 has keys"),
        (lambda lines: lines.pop(), "15 path rows, header says n_samples = 16"),
        (lambda lines: lines.append(lines[-1]), "17 path rows"),
        (lambda lines: lines.__setitem__(-1, lines[-1][:20]), "line 17 is not valid JSON"),
        (lambda lines: lines.__setitem__(2, "[1, 2]\n"), "line 3 has keys list"),
    ],
    ids=["version", "missing_key", "extra_key", "short", "long", "cut_line", "not_object"],
)
def test_read_rejects_damaged_files(tmp_path, edit, fragment):
    path = tmp_path / "samples.ndjson"
    campaign("ring3", n=16).write(path)
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=fragment) as info:
        SampleSet.read(path)
    assert str(path) in str(info.value)


def test_failed_write_leaves_no_file(tmp_path):
    s = edge_sample_set()
    s.final_masks[-1] = "not a mask"  # fails in the second block
    path = tmp_path / "samples.ndjson"
    with pytest.raises(TypeError):
        s.write(path)
    assert list(tmp_path.iterdir()) == []
    # an earlier file at the same path is kept whole
    good = campaign("ring3", n=16)
    good.write(path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        s.write(path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_shared_dispatch_cache_is_used():
    fx = FIXTURES["ring3"]
    cache = DispatchCache(fx.network)
    run_campaign(fx.network, fx.model, fx.config, 64, seed=1, dispatch_cache=cache)
    assert cache.misses > 0
    run_campaign(fx.network, fx.model, fx.config, 64, seed=2, dispatch_cache=cache)
    # the second campaign re-requests masks the first already dispatched
    assert cache.hits > 0
    # ring3 has 3 components, so at most 8 dispatchable states exist
    assert cache.misses <= 8
