"""The sharded sampler against the serial one in ``sample_oracle``: the same bytes, errors
and final stream counter for any usable CPU count, and no child process left behind."""
import ctypes
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sample_oracle
from layoutdiffusion import diffusion
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.diffusion import DiffusionConfig, build_schedule, sample
from layoutdiffusion.exceptions import DataError, LayoutDiffusionError, NumericError
from layoutdiffusion.rng import RngStream
from layoutdiffusion.tensor import Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
SCHEDULE = build_schedule(4)
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def net(continuous=False, dtype=np.float64):
    kind = {"attr_dim": 2} if continuous else {"num_classes": 3}
    config = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=16, **kind)
    return config, init_denoiser_params(config, RngStream(5), dtype=dtype)


def batch(counts, continuous=False, extra_columns=0, seed=0):
    """Attributes and a mask whose row ``i`` holds ``counts[i]`` valid slots, scattered."""
    rng = np.random.default_rng(seed)
    b, n = len(counts), max(counts) + extra_columns
    mask = np.zeros((b, n), dtype=bool)
    for row, count in enumerate(counts):
        mask[row, rng.permutation(n)[:count]] = True
    attributes = rng.normal(size=(b, n, 2)) if continuous else rng.integers(0, 3, (b, n))
    return attributes, mask


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    forks = []
    fork_shard = diffusion._fork_shard

    def counting(chain, lo, hi):
        forks.append((lo, hi))
        return fork_shard(chain, lo, hi)

    monkeypatch.setattr(diffusion, "_fork_shard", counting)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def both(attributes, mask, params, denoiser_config, **kwargs):
    """``(sharded, serial)``: each a ``(result or error message, final stream counter)``."""
    out = []
    for run in (sample, sample_oracle.sample):
        stream = RngStream(11, 3)
        try:
            result = run(attributes, mask, params, denoiser_config, SCHEDULE, stream, **kwargs)
        except (DataError, NumericError) as exc:
            result = f"{type(exc).__name__}: {exc}"
        out.append((result, stream.counter))
        assert_no_children()
    return out


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(1, 5), min_size=1, max_size=9), one=st.integers(0, 8),
       extra=st.integers(0, 2), continuous=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), cpus=st.integers(1, 3),
       clamp=st.booleans(), seed=st.integers(0, 2**16))
def test_sharded_sample_matches_the_serial_oracle_bit_for_bit(counts, one, extra, continuous,
                                                              dtype, cpus, clamp, seed):
    counts[one % len(counts)] = 1
    config, params = net(continuous, dtype)
    attributes, mask = batch(counts, continuous, extra, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_cpus(monkeypatch, cpus)
        (got, got_counter), (want, want_counter) = both(
            attributes, mask, params, config, config=DiffusionConfig(clamp_output=clamp))
    assert got.geometry_raw.dtype == want.geometry_raw.dtype == dtype
    assert got.geometry_raw.tobytes() == want.geometry_raw.tobytes()
    if clamp:
        assert got.geometry_clamped.tobytes() == want.geometry_clamped.tobytes()
    else:
        assert got.geometry_clamped is want.geometry_clamped is None
    assert got_counter == want_counter


@pytest.mark.parametrize("counts,cpus,bounds", [
    ([6, 1, 1, 1, 1, 1, 1], 2, [0, 1, 7]),
    ([3, 3, 3, 3], 2, [0, 2, 4]),
    ([2, 2, 2, 2, 2, 2], 3, [0, 2, 4, 6]),
    ([2, 2], 3, [0, 1, 2]),
    ([4, 1, 1], 3, [0, 1, 3]),
    ([5, 5, 5], 1, [0, 3]),
    ([5], 2, [0, 1]),
])
def test_shards_hold_about_equal_element_counts(monkeypatch, counts, cpus, bounds):
    config, params = net()
    attributes, mask = batch(counts)
    set_cpus(monkeypatch, cpus)
    tensors = {name: Tensor(arr) for name, arr in params.items()}
    assert diffusion._shard_bounds(attributes, mask, tensors, config) == bounds


def test_the_first_shard_steps_through_the_module_in_this_process(monkeypatch):
    config, params = net()
    attributes, mask = batch([3, 2, 3, 2])
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    steps = []
    step = diffusion.p_sample_step

    def counting_step(g, t, *args):
        steps.append((os.getpid(), t))
        return step(g, t, *args)

    monkeypatch.setattr(diffusion, "p_sample_step", counting_step)
    sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    assert forks == [(2, 4)]
    assert steps == [(os.getpid(), t) for t in range(SCHEDULE.timesteps, 0, -1)]
    assert_no_children()


def test_a_threaded_process_samples_in_process(monkeypatch):
    config, params = net()
    attributes, mask = batch([3, 2, 3, 2])
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    finally:
        release.set()
        thread.join()
    want = sample_oracle.sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    assert forks == []
    assert got.geometry_raw.tobytes() == want.geometry_raw.tobytes()


@pytest.mark.parametrize("nan_rows", [[3], [0, 3], [1, 2]])
def test_a_non_finite_feature_raises_the_serial_message(monkeypatch, nan_rows):
    config, params = net(continuous=True)
    attributes, mask = batch([2, 3, 2, 3], continuous=True)
    attributes[nan_rows, :, 0] = np.nan
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    (got, got_counter), (want, want_counter) = both(attributes, mask, params, config)
    assert forks == [(2, 4)]
    assert isinstance(want, str) and "at reverse step 4" in want
    assert (got, got_counter) == (want, want_counter)


@pytest.mark.parametrize("labels,columns", [({0: 5, 3: -1}, 3), ({3: 7}, 3), ({}, 4)])
def test_inputs_the_denoiser_refuses_give_the_serial_outcome(monkeypatch, labels, columns):
    # Label ids out of range in two shards, where each shard alone would name its own id,
    # and attributes padded wider than the mask, which a serial chain reads as flat rows.
    config, params = net()
    attributes, mask = batch([2, 3, 2, 3])
    attributes = np.pad(attributes, ((0, 0), (0, columns - 3)))
    for row, label in labels.items():
        attributes[row, 0] = label
    set_cpus(monkeypatch, 2)
    (got, got_counter), (want, want_counter) = both(attributes, mask, params, config)
    assert isinstance(want, str) == bool(labels)
    if labels:
        assert (got, got_counter) == (want, want_counter)
    else:
        assert got.geometry_raw.tobytes() == want.geometry_raw.tobytes()


def test_the_earliest_failing_step_of_any_shard_is_reported(monkeypatch):
    config, params = net()
    attributes, mask = batch([2, 3, 2, 3])
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    step = diffusion.p_sample_step

    def failing_step(g, t, *args):
        out = step(g, t, *args)
        if t == (2 if os.getpid() == parent else 3):
            out[0] = np.nan  # every slot of the shard's first row, padding included
        return out

    monkeypatch.setattr(diffusion, "p_sample_step", failing_step)
    stream = RngStream(11, 3)
    with pytest.raises(NumericError) as error:
        sample(attributes, mask, params, config, SCHEDULE, stream)
    assert str(error.value) == "sampling produced 12 non-finite values at reverse step 3"
    b, n = mask.shape
    assert stream.counter == 3 + 8 * b * n * 3  # the start and the draws of steps 4 and 3
    assert_no_children()


def test_a_child_that_dies_raises_and_the_parent_does_not_hang(monkeypatch):
    config, params = net()
    attributes, mask = batch([2, 3, 2, 3])
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    step = diffusion.p_sample_step

    def dying_step(g, t, *args):
        if os.getpid() != parent and t == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(g, t, *args)

    def hung(signum, frame):
        raise AssertionError("the parent hung")

    monkeypatch.setattr(diffusion, "p_sample_step", dying_step)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(LayoutDiffusionError, match=f"rows 2:4 ended with signal "
                                                       f"{int(signal.SIGKILL)} "):
            sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_children()


def test_an_error_in_the_calling_process_kills_and_reaps_the_children(monkeypatch):
    config, params = net()
    attributes, mask = batch([2, 3, 2, 3])
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    step = diffusion.p_sample_step

    def interrupted_step(g, t, *args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(10)  # the child would outlive the call unless killed
        return step(g, t, *args)

    monkeypatch.setattr(diffusion, "p_sample_step", interrupted_step)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    assert time.monotonic() - start < 5
    assert_no_children()


def test_an_exception_in_a_child_is_raised_in_the_caller(monkeypatch):
    config, params = net()
    attributes, mask = batch([2, 3, 2, 3])
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    step = diffusion.p_sample_step

    def raising_step(g, t, *args):
        if os.getpid() != parent:
            raise ValueError("a child's own error")
        return step(g, t, *args)

    monkeypatch.setattr(diffusion, "p_sample_step", raising_step)
    with pytest.raises(ValueError, match="a child's own error"):
        sample(attributes, mask, params, config, SCHEDULE, RngStream(1))
    assert_no_children()


def test_a_child_writes_none_of_the_callers_unflushed_output():
    code = """
import os, numpy as np
from layoutdiffusion import diffusion
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.rng import RngStream
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
fork_shard = diffusion._fork_shard
diffusion._fork_shard = lambda *args: forks.append(args[1:]) or fork_shard(*args)
config = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=16, num_classes=3)
params = init_denoiser_params(config, RngStream(5))
print("before")
diffusion.sample(np.array([[0, 1], [2, 0]]), np.ones((2, 2), bool), params, config,
                 diffusion.build_schedule(4), RngStream(1))
print("after", forks)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\nafter [(1, 2)]\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="uses prctl's subreaper")
def test_a_child_exits_once_its_parent_has_died(tmp_path):
    # The middle process samples two rows, and its child records its pid. The test kills
    # the middle process while the child still steps. As the child subreaper, this
    # process inherits the orphan, so it can reap it, and no zombie is left behind.
    code = """
import os, sys, time, numpy as np
from layoutdiffusion import diffusion
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.rng import RngStream
os.sched_getaffinity = lambda pid: {0, 1}
parent, path = os.getpid(), sys.argv[1]
step = diffusion.p_sample_step
def slow_step(g, t, *args):
    if os.getpid() != parent and not os.path.exists(path):
        with open(path + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(path + ".tmp", path)
    time.sleep(0.05)
    return step(g, t, *args)
diffusion.p_sample_step = slow_step
config = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=16, num_classes=3)
params = init_denoiser_params(config, RngStream(5))
diffusion.sample(np.array([[0, 1], [2, 0]]), np.ones((2, 2), bool), params, config,
                 diffusion.build_schedule(600), RngStream(1))
"""
    path = tmp_path / "child.pid"
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        middle = subprocess.Popen([sys.executable, "-c", code, str(path)], env=ENV)
        try:
            deadline = time.monotonic() + 60
            while not path.exists():
                assert middle.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            middle.kill()
            middle.wait()
        child = int(path.read_text())
        deadline = time.monotonic() + 15  # the child's whole chain takes 30 s
        while os.waitpid(child, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                pytest.fail("the child went on after its parent died")
            time.sleep(0.05)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
