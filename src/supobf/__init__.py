"""Supervisor obfuscation toolkit for discrete-event systems.

Verifies whether a supervised plant can be attacked by a covert,
command-eavesdropping actuator-enablement attacker, and synthesizes a
minimum-state supervisor that preserves the closed-loop behavior while
defeating every such attacker.
"""

from .automata import (Alphabet, AutomatonError, PartialDFA, accepts,
                       canonical_key, dual_marked_product, is_total,
                       language_equal, reachable_states, sync_product, to_dot,
                       totalize)
from .control import (AttackConstraint, ControlConstraint, DamageReport,
                      Supervisor, Violation, check_supervisor, closed_loop,
                      control_command, stray_damage_string, validate_damage)
from .attack import (AttackVerdict, AttackWitness, GPAutomaton, OracleResult,
                     SubsetAutomaton, attackable_by_search,
                     determinize_and_label, generalized_product,
                     non_attackable, project_attacker_view, subset_to_dot)
from .obfuscate import (ObfuscationRequest, ObfuscationResult, SizeTrace,
                        behavior_preserving_supervisors, obfuscate)
from .problemfile import (ParseError, ProblemFile, emit_automaton_section,
                          emit_problem, load_problem, parse_problem)
from .sat import BackendError, SatSolver
from .satenc import (DUMP, CnfInstance, VarTable, blocking_clause,
                     controllability_clauses, decode_model, encode,
                     export_dimacs, parse_dimacs, separation_clauses,
                     solve_instance, symmetry_clauses,
                     transition_function_clauses)

__version__ = "0.1.0"
