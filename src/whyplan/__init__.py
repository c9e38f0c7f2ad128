"""Macro-action MCTS driving planner with contrastive explanations.

Pipeline: a scenario (lane graph + vehicles) is sampled and observed, goal
recognition predicts every other vehicle's goals and trajectories, MCTS
plans the ego's macro actions, the completed search is mirrored as a Bayes
net, and counterfactual queries against that net are rendered as natural
language.
"""

from .bayes_net import (BnModel, build_bn, collision_collider, expected_reward,
                        model_to_dict, outcome_distribution, query)
from .causal import (CausalSummary, Cause, CfOutcome, CounterfactualQuery, Effect,
                     agent_influences, outcome_given_cf, reward_deltas, trace_divergence)
from .errors import (EmptyTraceLogError, GoalUnreachableError, InapplicableMacroError,
                     NoApplicableActionError, OffRoadError, QueryParseError,
                     RunDirectoryError, ScenarioParseError, ScenarioValidationError,
                     StyleError, UnexploredCounterfactualError, WhyplanError)
from .grammar import (DEFAULT_STYLE, GrammarInput, adverb, explain, generate_raw, load_style,
                      post_process, realize_macros, to_grammar_input)
from .maneuvers import (KinematicParams, MacroAction, Maneuver, Trajectory,
                        TrajectoryFeatures, applicable_macros, expand_macro,
                        extract_features, macro_from_name)
from .mcts import (OUTCOME_KINDS, PlannerConfig, RewardConfig, SearchTree, TraceRecord,
                   run_mcts, terminal_reward)
from .pipeline import (PipelineResult, explain_query, load_run, run_pipeline, save_run)
from .recognition import (GoalPosterior, Predictions, TrajectoryOption, enumerate_plans,
                          goal_posterior, predict_all, trajectory_options)
from .scenario import (Goal, JointState, Junction, Lane, RoadLayout, Scenario, VehicleState,
                       goal_contains, load_scenario, locate, sample_initial_states)
from .simulation import FixedTraffic, SimulationContext, observe, simulate_step

__version__ = "0.1.0"
