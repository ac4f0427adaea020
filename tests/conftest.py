from hypothesis import settings

# every run draws the same examples, so a failure repeats on the next run;
# each test keeps its own max_examples and database=None
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
