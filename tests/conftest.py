from hypothesis import Phase, settings

# scripts/mutants.py runs each mutant's killers under this profile: the same
# draws on every run, so a kill does not depend on luck, and no shrinking,
# which only tidies a failure that has already counted.
settings.register_profile(
    "mutants",
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
