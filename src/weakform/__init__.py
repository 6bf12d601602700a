"""weakform: finite enactive task spaces, proxy learning and utility bounds.

A desk-scale laboratory for studying statement extensions ("weakness"),
task spaces over finite vocabularies, policy selection by proxy
maximisation, and how vocabulary choice bounds the utility of learning.
Everything is exact (integers and rationals), seeded and reproducible.
"""

from .core import (
    DEFAULT_GUARDS,
    HARD_GUARD_LIMITS,
    Environment,
    ExtensionSet,
    Guards,
    Program,
    Statement,
    VocabularyReorderedWarning,
    canon_statement,
    encode_statement,
    encode_statement_set,
    enumerate_language,
    env_hash,
    environment_to_dict,
    equivalent,
    extension,
    extension_of_set,
    extension_size,
    full_powerset_vocabulary,
    is_completion,
    is_statement,
    language_size,
    load_environment,
    mk_environment,
    save_environment,
    truth_set,
)

__version__ = "0.1.0"

from .tasks import (  # noqa: E402  (core must import first)
    PolicySet,
    Task,
    TaskSpace,
    correct_policies,
    count_tasks,
    enumerate_tasks,
    hierarchy_level,
    infer,
    is_child,
    is_correct_policy,
    load_task,
    mk_task,
    outputs,
    sample_task,
    task_space,
    task_to_dict,
)
from .learning import (  # noqa: E402
    GeneralizationTable,
    Proxy,
    estimate_generalization_probabilities,
    estimate_generalization_probability,
    evaluate_generalization,
    gen_cmp,
    generalization_probability,
    generalization_table,
    learn,
    proxy_by_name,
    random_proxy,
    sample_efficiency,
    simplicity_cmp,
    simplicity_proxy,
    table_proxy,
    weakness_cmp,
    weakness_proxy,
)
from .bounds import (  # noqa: E402
    UninstantiatedTask,
    all_vocabularies,
    compare_vocabularies,
    instantiate,
    mk_uninstantiated,
    restriction_is_strict_child,
    utility,
    verify_upper_bound,
    verify_utility_maximal_at_P,
    weakest_correct_policy,
)
