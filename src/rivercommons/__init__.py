"""Simulation engine for a river-irrigation and lake-fishing commons.

Five decision pipelines (procedural rules, LLM role-play, naive and
expert-guided empirical-game analysis, centralized allocation) share one
ecological model; the expert pipeline builds pairwise irrigation games and a
common pool resource fishing game each year and plays their Nash equilibria.
"""

from .config import RunConfig, config_from_dict, load_config
from .ecology import (ActivityClass, Decision, EcologyParams, FishPopulation,
                      RiverYear, WorldState, YearRecord, advance_year,
                      classify_activity, crop_outcome, route_river, step_fish)
from .equilibrium import (BimatrixGame, CprSolution, MixedProfile,
                          enumerate_pure_ne, is_epsilon_ne, lemke_howson,
                          select_equilibrium, solve_symmetric_cpr)
from .errors import (ConfigurationError, InvalidGameError, RiverCommonsError,
                     SchemaError, SimulationError, TemplateError,
                     TransportError)
from .games import (ActionSituationModel, ASKind, IrrigationGameSpec,
                    build_cpr_fishing_game, build_irrigation_game,
                    irrigated_fields, pair_payoffs, parse_llm_game,
                    solve_irrigation_game)
from .gateway import (ChatRequest, Gateway, GatewayConfig, extract_structured,
                      render_prompt, request_fingerprint)
from .harness import RunArtifacts, calibrate_check, run_simulation, sweep
from .outputs import emit_outputs, summarize
from .policies import (AuthorityState, BehaviourProfile, centralized_allocate,
                       expert_egta_decide, generative_decide,
                       moving_average_predict, naive_egta_decide,
                       procedural_decide)

__version__ = "0.1.0"
