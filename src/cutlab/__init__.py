"""Numerical laboratory for cut loci, focal points, and injectivity radii of
points and closed curves on compact surfaces, with stability sweeps."""

__version__ = "0.1.0"

from .geometry import (GeometryError, ImplicitSurface, PeriodicChart,
                       ScalarField, ZERO_FIELD, ambient_scalar_field,
                       chart_metric_field, chart_scalar_field,
                       conformal_family, level_surface, linear_blend,
                       validation_grid)
from .geodesics import IntegrationError, integrate_batch
from .submanifold import (CurveSpec, NormalFrame, SubmanifoldSpec, chart_curve,
                          curve_submanifold, embedding_family, foot_point,
                          point_submanifold, principal_curvature_bound,
                          shape_operators, surface_curve, unit_normals)
from .wavefront import WavefrontAtlas, build_atlas, distance, eikonal_residual
from .cutanalysis import (CutProfile, PointCloud, compute_profiles, cut_time,
                          cut_times, cut_locus_cloud, f_min,
                          injectivity_radius_char, injectivity_radius_direct,
                          loop_scan, separating_points, warner_bound)
from .stability import (HausdorffReport, Resolution, ScenarioResult,
                        SweepTable, curvature_stats,
                        cut_time_continuity_probe,
                        focal_free_persistence_probe,
                        hausdorff_convergence_check, hausdorff_report,
                        run_case, sweep_embedding_family, sweep_metric_family)
from .config import ConfigError, RunConfig, parse_config, scenario
