"""python -m levyrefract: the levy-refract command line."""
from .cli_reporting import main
raise SystemExit(main())
