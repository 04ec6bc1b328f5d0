"""Joint transmit precoding and reflective-surface phase optimization for
multi-user MIMO downlink, with an SVD-form message-passing phase solver,
closed-form sum-MMSE precoding, and a seeded Monte Carlo harness."""

__version__ = "0.1.0"

from .altopt import (BeamformingSolution, OptimizerConfig, joint_optimize,
                     objective_error, vamp_setup)
from .channel import (ChannelParams, ChannelSet, CsiQuality, PathLossParams,
                      SystemDims, boost_los, path_loss, perturb_csi,
                      sample_channel_set, ula_response, upa_response)
from .harness import (ExperimentSpec, TrialRecord, desk_spec, load_spec,
                      paper_spec, parse_spec, run_sweep)
from .linalg import (EconomySVD, StructuredSVD, economy_svd, khatri_rao_columns,
                     kron_transform, structured_svd)
from .metrics import nrmse, per_user_sinr, sum_rate
from .precoding import PrecodingSolution, alpha_opt, effective_channel, mmse_precoder
from .projectors import (REACTIVE, UNIMODULAR, Projector, get_projector,
                         reactance_opt, reactive_derivative, reactive_project,
                         unimodular_derivative, unimodular_project)
from .vamp import (ExtrinsicMessage, VampConfig, VampResult, damp_update,
                   lmmse_extrinsic, project_step, run_vamp)

__all__ = [name for name in dir() if not name.startswith("_")]
