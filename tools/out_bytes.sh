#!/bin/sh
# Compare, byte for byte, the --out files and the stdout reports of the
# README's example commands run from this checkout and from another
# commit.  Usage: tools/out_bytes.sh REF
#
# Every `rotn ...` line of the README's "Command line" block runs with its
# own --out replaced by one name per command, once per precision when the
# subcommand takes --precision, and once more as written but without
# --out, its stdout report kept as NAME.stdout.  A command that takes
# --precision also runs without --out under --precision exact-only, its
# report kept as NAME-exact-only.stdout, since exact-only reports must
# stay the same bytes too.  It runs from this
# checkout's src/ and from REF's, extracted with git archive into a
# temporary directory, in two output directories under the same relative
# names, so the headers can match too.  Prints "same" per file when both
# sides wrote the same bytes and exited with the same status (a check
# verdict), else "DIFFERS", and exits 1 if any file differs, was not
# written or came with another exit status, 2 if the README block holds
# no command.
cd "$(dirname "$0")/.." || exit 2
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
repo=$(pwd)
ref=$1
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref" "$tmp/checkout.out" "$tmp/ref.out"
git archive "$ref" src | tar -x -C "$tmp/ref" || exit 2

sed -n '/^## Command line/,/^## /p' README.md | grep '^rotn ' > "$tmp/commands"
[ -s "$tmp/commands" ] || {
    echo "$0: no 'rotn ...' line in the README's \"Command line\" block" >&2
    exit 2
}

# on_both STDOUT ARGS...: run `rotn ARGS` from this checkout and from REF,
# each in its own output directory with stdout to STDOUT there, and set
# exit_checkout and exit_ref.  Exit status 1 (a failed check) still
# writes the report.
on_both() {
    stdout=$1
    shift
    for side in checkout ref; do
        src=$repo/src
        [ $side = ref ] && src=$tmp/ref/src
        (cd "$tmp/$side.out" \
            && PYTHONPATH="$src" python3 -m rotn.cli "$@" </dev/null >"$stdout" 2>/dev/null)
        eval "exit_$side=\$?"
    done
}

# compare NAME: both sides' file NAME and exit statuses
compare() {
    if [ "$exit_checkout" != "$exit_ref" ]; then
        echo "DIFFERS  $1: exit status $exit_checkout here, $exit_ref at $ref"
        status=1
    elif cmp "$tmp/checkout.out/$1" "$tmp/ref.out/$1" >"$tmp/cmp" 2>&1; then
        echo "same     $1"
    else
        echo "DIFFERS  $1: $(sed "s|$tmp/||g; q" "$tmp/cmp")"
        status=1
    fi
}

status=0
i=0
while IFS= read -r line; do
    i=$((i + 1))
    eval "set -- $(printf '%s\n' "${line#rotn }" | sed 's/ --out [^ ]*//')"
    kind=$1
    precisions=default
    if PYTHONPATH="$repo/src" python3 -m rotn.cli "$kind" --help </dev/null \
            | grep -q -- --precision; then
        precisions="certified-fast exact-only"
    fi
    for p in $precisions; do
        name=$i-$kind-$p.out
        flag=""
        [ "$p" = default ] || flag="--precision $p"
        on_both /dev/null "$@" $flag --out "$name"
        compare "$name"
    done
    on_both "$i-$kind.stdout" "$@"
    compare "$i-$kind.stdout"
    if [ "$precisions" != default ]; then
        on_both "$i-$kind-exact-only.stdout" "$@" --precision exact-only
        compare "$i-$kind-exact-only.stdout"
    fi
done < "$tmp/commands"
exit $status
