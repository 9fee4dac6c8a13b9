"""Run the whole identity catalogue and print the tables."""

from skewgt import relations

for report in relations.run_suites(list(relations.SUITES)):
    print(report.table())
    print()
