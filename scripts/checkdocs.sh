#!/usr/bin/env bash
# Checks that the documents describe the tree as it is:
#   - every backticked Go identifier in DESIGN.md and README.md is a word
#     of some *.go file, and every backticked repository path exists;
#   - every "DESIGN §N" or "DESIGN.md §N" citation names a numbered
#     heading of DESIGN.md;
#   - no file but the change log and the roadmap cites the per-change
#     benchmark files that were deleted.
# Usage: bash scripts/checkdocs.sh (from anywhere in the repository).
# Prints each problem and exits 1 if there is any.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

fail=0
problem() {
	echo "checkdocs: $*"
	fail=1
}

# The words of the Go tree, as git grep -w would match them.
words="$(mktemp)"
files="$(mktemp)"
trap 'rm -f "$words" "$files"' EXIT
git grep -ohE '[A-Za-z_][A-Za-z0-9_]*' -- '*.go' | sort -u >"$words"
git ls-files >"$files"

ident='^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$'
top="$(cut -d/ -f1 "$files" | sort -u | paste -sd'|')"
path="^(\.?($top))(/[A-Za-z0-9_.*-]+)*/?$|^[A-Za-z0-9_.*/-]+\.(go|md|json|jsonl|sh|txt|yml|mod)$"
for doc in DESIGN.md README.md; do
	while IFS= read -r span; do
		if [[ $span =~ $path ]]; then
			re="$(sed -e 's/\./\\./g' -e 's/\*/[^\/]*/g' -e 's:/$::' <<<"$span")"
			grep -qE "(^|/)$re(/|$)" "$files" || problem "$doc: \`$span\` is not a file in the tree"
		elif [[ $span =~ $ident ]]; then
			for w in $(tr '.' ' ' <<<"${span%()}"); do
				grep -qxF "$w" "$words" || problem "$doc: \`$span\`: no Go file has the word $w"
			done
		fi
	done < <(grep -o '`[^`]*`' "$doc" | tr -d '`' | sort -u)
done

# Section citations. Headings are numbered "## 3." or "### 3.2" and so on.
heads="$(grep -oE '^#{2,4} [0-9]+(\.[0-9]+)*' DESIGN.md | cut -d' ' -f2 | sort -u)"
cite='DESIGN(\.md)?,? §[0-9]+(\.[0-9]+)*((, | and | or )§[0-9]+(\.[0-9]+)*)*'
while IFS= read -r hit; do
	where="${hit%%:DESIGN*}"
	for n in $(grep -oE '§[0-9]+(\.[0-9]+)*' <<<"${hit#"$where"}" | tr -d '§'); do
		grep -qxF "$n" <<<"$heads" || problem "$where: DESIGN §$n names no heading"
	done
done < <(git grep -noE "$cite" -- '*.go' .github/workflows/ci.yml .claude/skills/verify/SKILL.md README.md EXPERIMENTS.md || true)

# The per-change benchmark files are gone; their numbers live in the
# change log, and a reader finds the files with git show <commit>:<file>.
gone='BENCH[_]PR'
grep -E "$gone" "$files" | sed 's/^/checkdocs: still tracked: /' && fail=1
git grep -nE "$gone" -- . ':(exclude,glob)*.md' | sed 's/^/checkdocs: cites a deleted file: /' && fail=1
git grep -nE "$gone" -- DESIGN.md README.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md |
	sed 's/^/checkdocs: cites a deleted file: /' && fail=1

exit "$fail"
