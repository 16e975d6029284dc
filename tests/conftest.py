from hypothesis import HealthCheck, settings

settings.register_profile(
    "hopflinks",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Selected with `--hypothesis-profile=ci`, which overrides the default below.
settings.register_profile("ci", settings.get_profile("hopflinks"), max_examples=400)
settings.load_profile("hopflinks")
