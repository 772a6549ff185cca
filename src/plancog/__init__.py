"""plancog: plan-schema recognition and comprehension analyses for a
mini-Pascal subset."""

from .analysis import (Candidate, Chunk, GoalNode, PlanlinessReport, Recognition,
                       chunk, delocalization, fill_blank, goal_tree, planliness,
                       recognize)
from .activation import (Activation, CoherenceReport, Expectation, PlanInstance,
                         ProgramIndex, activate, evaluate_coherence, extract_beacons,
                         instantiate, verify_expectations)
from .errors import (AnalysisError, KbFormatError, KbValidationError, LexError,
                     ParseError, PlancogError)
from .frontend import (BlankedProgram, Program, Token, blank_line, parse,
                       pretty_print, structurally_equal, tokenize)
from .interpreter import (ExecutionResult, TraceEvent, compare_behavior, execute,
                          trace_variable, variable_events)
from .kb import (Cue, KnowledgeBase, ProductionRule, Schema, builtin_kb, dump_kb,
                 implementations, load_kb, specializations, validate_kb)
from .relations import (Cfg, DefUse, PrimeNode, build_cfg, decompose_primes,
                        def_use, query_relation)

__version__ = "0.1.0"
