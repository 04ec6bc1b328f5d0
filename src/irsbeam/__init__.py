"""Joint transmit precoding and reflective-surface phase optimization for
multi-user MIMO downlink, with an SVD-form message-passing phase solver,
closed-form sum-MMSE precoding, and a seeded Monte Carlo harness."""

__version__ = "0.1.0"

from .altopt import BeamformingSolution, OptimizerConfig, joint_optimize, vamp_setup
from .channel import (ChannelParams, ChannelSet, SystemDims, boost_los, irs_response,
                      perturb_csi, sample_channel_set, ula_response)
from .harness import (ExperimentSpec, TrialRecord, desk_spec, load_spec,
                      paper_spec, parse_spec, run_sweep)
from .linalg import EconomySVD, economy_svd, khatri_rao_columns, structured_svd
from .metrics import fit_error, nrmse, per_user_sinr, sum_rate
from .precoding import PrecodingSolution, effective_channel, mmse_precoder
from .projectors import REACTIVE, UNIMODULAR, Projector, get_projector
from .vamp import (ExtrinsicMessage, VampConfig, VampResult, VampState, lmmse_extrinsic,
                   run_vamp, vamp_step)

__all__ = [name for name in dir() if not name.startswith("_")]
