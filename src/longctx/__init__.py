"""Context-window extension toolkit for toy embedding encoders.

Implements plug-and-play extension strategies (parallel context windows,
grouped/recurrent positions, position interpolation, NTK frequency rescaling,
SelfExtend) and frozen-anchor fine-tuning for a minimal bidirectional encoder,
plus deterministic passkey / needle-in-a-haystack retrieval benchmarks and the
retrieval metrics to score them.
"""

__version__ = "0.1.0"

from .encoder import (  # noqa: E402
    Model,
    ModelConfig,
    apply_rope,
    attention_score,
    encode,
    encode_many,
    init_model,
    pool_and_normalize,
)
from .errors import (  # noqa: E402
    ConfigurationError,
    DimensionError,
    EmptyInputError,
    EvaluationError,
    GenerationError,
    LengthError,
    LongCtxError,
    NumericError,
    ParseError,
    PositionError,
    ValidationError,
)
from .positions import (  # noqa: E402
    ExtensionSpec,
    Strategy,
    attention_scale,
    build_interpolated_matrix,
    plan_chunks,
    resolve_ntk_lambda,
    resolve_se_params,
    standard_frequencies,
)
from .chunking import pcw_encode  # noqa: E402
from .synth import (  # noqa: E402
    OracleEmbedder,
    RetrievalTask,
    SyntheticTaskConfig,
    build_bucket,
    gen_needle,
    gen_passkey,
    word_budget,
)
from .evaluation import (  # noqa: E402
    BenchmarkTask,
    EmbeddingIndex,
    EvalReport,
    ModelEmbedder,
    acc_at_1,
    ndcg_at_10,
    run_benchmark,
    search,
)
from .tuning import (  # noqa: E402
    TrainingPair,
    TuneConfig,
    extend_for_tuning,
    grad_check,
    sample_skip_bias,
    train_model,
    training_pairs_from_task,
    tune,
)
from .serialization import (  # noqa: E402
    load_checkpoint,
    load_task,
    load_task_dir,
    save_checkpoint,
    task_stats,
    write_report,
    write_task,
)
