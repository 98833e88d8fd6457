"""Two-party fixed-point toolkit around a communication-free inverse-sqrt
seed: additive sharing, Beaver multiplication, share flooding, smooth-unit
non-linear layers, and counted-communication benchmarks."""

from .errors import ConfigError, ConstructionError, ProtocolError, \
    RangeError, RootshareError, TransportError, UnsupportedValueError, \
    UsageError
from .ring import CLIENT, SERVER, PARTIES, DealerState, FixedPointCodec, \
    Masked, RingShare, TripleStream, beaver_mul_batch, linear_combine, \
    make_shares, matmul_shared, reconstruct, reconstruct_raw, run_session, \
    split_values, truncate_local
from .floatbits import FloatBits, SignedBitsInteger, compose, decompose, \
    pack_integer, to_binary32, unpack_integer
from .transport import CommStats, Endpoint, InprocEndpoint, SocketEndpoint, \
    open_inproc, open_socket_pair, run_pair
from .flood import ActivationSampler, FloodConfig, adversarial_split, \
    draw_flood_mask, flood_mask, flood_reshare_batch, flood_share, \
    shares_from_floats
from .rsqrt import MAGIC_K1, NewtonConfig, SeedParams, SweepRow, \
    bits_to_value_batch, closeness_sweep, newton_plain, newton_shared_batch, \
    rsqrt_shared_batch, run_shared_rsqrt, seed_local, seed_share_client, \
    seed_share_server
from .config import DEFAULT_CONFIG, ProtocolConfig, config_from_mapping, \
    load_config_file
from .nonlinear import GELU_PARAMS, RELU_PARAMS, SmuParams, gelu_plain, \
    layernorm_plain, layernorm_shared, relu_plain, run_layernorm_shared, \
    run_smu_shared, run_softmax_star_shared, smu_plain, smu_shared_batch, \
    softmax_star_plain, softmax_star_shared
from .encoder import EncoderSites, ToyEncoderConfig, generate_weights, \
    load_weights_csv, save_weights_csv, toy_encoder_infer
from .bench import AblationRow, LutCostModel, ReportRow, comm_report, \
    count_rsqrt_element_bytes, crypten_seed, crypten_seed_cost, \
    flood_ablation, lut_cost, taylor_seed, write_report_csv

__version__ = "0.1.0"
