"""The serial form of ``diffusion.sample``: every row's reverse chain in one process, one
full-batch draw per step.  The reference that the sharded sampler is checked against, bit
for bit, in its geometry, its error messages and its stream's final counter."""
import numpy as np

from layoutdiffusion.diffusion import SampleResult, p_sample_step
from layoutdiffusion.exceptions import NumericError
from layoutdiffusion.tensor import Tensor


def sample(attributes, mask, params, denoiser_config, schedule, stream, config=None):
    params = {name: Tensor(arr) for name, arr in params.items()}
    mask = np.asarray(mask, dtype=bool)
    b, n = mask.shape
    dtype = next(iter(params.values())).data.dtype
    g = stream.gaussian((b, n, 4)).astype(dtype) * mask[..., None]
    for t in range(schedule.timesteps, 0, -1):
        g = p_sample_step(g, t, attributes, mask, params, denoiser_config, schedule, stream)
        bad = int(np.count_nonzero(~np.isfinite(g)))
        if bad:
            raise NumericError(f"sampling produced {bad} non-finite values at reverse step {t}")
    clamp = config.clamp_output if config is not None else True
    clamped = np.clip(g, -1.0, 1.0) * mask[..., None] if clamp else None
    return SampleResult(geometry_raw=g, geometry_clamped=clamped)
