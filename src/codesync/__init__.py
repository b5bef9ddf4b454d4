"""codesync: completeness and synchronization of finite variable-length codes.

The package decides completeness, finds shortest incompletable words, finds
and certifies synchronizing pairs, runs the marked-letter reduction that
bounds synchronizing-pair length by incompletable-word length, constructs
synchronizing complete prefix codes from length profiles, and hosts a small
experiment harness for the R/C worst-case parameters.
"""

from .errors import (
    AutomatonContractError,
    CodesyncError,
    EpsilonNotAllowed,
    InternalInvariantError,
    NotACode,
    NotComplete,
    NotInStar,
    NotSynchronizing,
    ParseError,
    SearchBudgetExceeded,
    SubsetCapExceeded,
)
from .languages import (
    Alphabet,
    FiniteLanguage,
    Word,
    is_code,
    is_prefix,
    kleene_membership,
    language_to_json,
    parse_language,
)
from .automata import (
    Automaton,
    accepts,
    automaton_from_json,
    automaton_to_json,
    determinize_minimize,
    first_return_language,
    flower_automaton,
    is_complete_automaton,
    is_deterministic,
    is_transitive,
    is_unambiguous,
    mask_from_states,
    reverse,
    states_from_mask,
    step_backward,
    step_forward,
    subset_bfs,
)
from .completeness import (
    CompletionWitness,
    brute_force_incompletable,
    find_completion,
    is_complete_language,
    left_star_completion,
    shortest_incompletable,
)
from .synchrony import (
    SyncPair,
    cerny_canonical_pair,
    cerny_family,
    is_constant,
    is_sync_pair,
    is_synchronizing_code,
    is_synchronizing_dfa,
    shortest_sync_pair,
    sync_word_shortest,
)
from .reduction import (
    HalfReduction,
    ReductionTrace,
    build_aprime,
    extract_w,
    half_reduction,
    shortest_incompletable_min_marked,
    synchronizing_pair_via_reduction,
)
from .encoding import (
    BinaryReductionTrace,
    Encoding,
    LengthProfile,
    apply_encoding,
    kraft_canonical,
    length_profile_general,
    length_profile_power2,
    reduce_incompletable_to_binary,
    reduce_sync_to_binary,
    road_colored_sync_code,
    uniform_sync_encoding,
)
from .experiments import (
    BoundCheck,
    ExperimentReport,
    enumerate_class_languages,
    estimate_C,
    estimate_R,
    random_complete_sync_codes,
    verify_main_bound,
)

__version__ = "0.1.0"
