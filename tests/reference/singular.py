"""Shared run settings of the topology tests."""

# the spacings at which each fixture reaches the topology stage (naca_IV's
# solve fails at 0.35)
TOPOLOGY_RUNS = {"half_disc": 0.35, "polygon_III": 0.35, "geometry_I": 0.35,
                 "nautilus": 0.5, "holed_nautilus": 0.35, "naca_IV": 0.5}
