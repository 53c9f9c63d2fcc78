"""Schema mappings as algebraic operations over database schemas.

The pipeline: parse dependencies from a small logic DSL, skolemize and
normalize them into single-head implications, compile those into operad
operations between schemas, then interpret the operations over concrete
finite instances.  On top of evaluation sit mapping satisfaction,
saturation (all alternative skolem outcomes), set-valued p-functions,
information-flux kernels with bounded view-closure equality, and the
vector-relation flattening of whole databases.
"""

from .errors import (
    DbmorphError,
    IncompleteInterpretationError,
    ParseError,
    PreconditionError,
    SafetyError,
    SchemaError,
)
from .model import (
    BOTTOM,
    EMPTY_NAME,
    EMPTY_SYMBOL,
    NULL,
    Instance,
    Relation,
    RelationSymbol,
    Schema,
    active_domain,
)
from .logic import (
    App,
    Comparison,
    Const,
    Egd,
    FuncKind,
    FuncSymbol,
    NormalizedImplication,
    NotNull,
    RelAtom,
    SOtgd,
    SOtgdConjunct,
    Tgd,
    Var,
    hoist_constants,
    normalize,
    skolemize,
    validate_instance,
)
from .dsl import parse_mapping, pretty_mapping
from .operads import (
    IDENTITY_OP,
    OperadArrow,
    OperadOperation,
    Place,
    build_equal_var_set,
    compile_source,
    make_operads,
    simple_var_positions,
)
from .interp import (
    ComponentFunction,
    FunctionTable,
    InstanceMorphism,
    TarskiInterpretation,
    alpha_star,
    satisfies,
)
from .flux import (
    ClosureBounds,
    FluxKernel,
    flux_equal,
    flux_kernel,
    in_closure,
    in_composed_flux,
)
from .saturation import (
    PFunction,
    SaturatedMorphism,
    derive_pfunction,
    saturate,
)
from .irdb import (
    VECTOR_SYMBOL,
    hash_tuple,
    parse_database,
    parse_tuple,
    vector_schema,
)
from .project import (
    Project,
    canonical_json,
    compile_project_mapping,
    load_instance_file,
    load_interpretation_file,
    load_project,
)

__version__ = "0.1.0"
