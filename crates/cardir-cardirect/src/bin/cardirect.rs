//! `cardirect` — command-line front end to the CARDIRECT tool layer.
//!
//! The paper's tool is a GUI; this binary exposes the same operations on
//! XML configurations (the paper's persistence format):
//!
//! ```text
//! cardirect show    <config.xml>                 # list regions and relations
//! cardirect compute <config.xml> [out.xml]       # compute all relations, re-export
//! cardirect query   <config.xml> '<query>'       # run a Section-4 query
//! cardirect pct     <config.xml> <primary> <ref> # percentage matrix of a pair
//! ```

use cardir_cardirect::{evaluate, from_xml, parse_query, to_xml, Configuration};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cardirect: {message}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Configuration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    from_xml(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let usage = "usage: cardirect <show|compute|query|pct> … (see --help)";
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => Ok(HELP.to_string()),
        Some("show") => {
            let [path] = rest(args, 1)?;
            let config = load(path)?;
            Ok(render_show(&config))
        }
        Some("compute") => {
            let path = args.get(1).ok_or("compute needs an input file")?;
            let mut config = load(path)?;
            config.compute_all_relations();
            match args.get(2) {
                Some(out) => {
                    // Crash-safe save: write-temp/fsync/rename plus a
                    // `.bak` generation — never an in-place overwrite.
                    let report = config
                        .save_to(Path::new(out))
                        .map_err(|e| format!("cannot write {out}: {e}"))?;
                    Ok(format!(
                        "computed {} relations over {} regions → {out} ({} bytes{})\n",
                        config.relations().len(),
                        config.len(),
                        report.bytes,
                        if report.backup_created {
                            ", previous kept as .bak"
                        } else {
                            ""
                        }
                    ))
                }
                None => Ok(to_xml(&config)),
            }
        }
        Some("query") => {
            let [path, query_text] = rest(args, 2)?;
            let config = load(path)?;
            let query = parse_query(query_text).map_err(|e| e.to_string())?;
            let answers = evaluate(&query, &config).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for binding in &answers {
                out.push_str(&binding.values.join("\t"));
                out.push('\n');
            }
            out.push_str(&format!("{} answer(s)\n", answers.len()));
            Ok(out)
        }
        Some("pct") => {
            let [path, primary, reference] = rest(args, 3)?;
            let config = load(path)?;
            let relation = config
                .relation_between(primary, reference)
                .map_err(|e| e.to_string())?;
            let matrix = config
                .percentages_between(primary, reference)
                .map_err(|e| e.to_string())?;
            Ok(format!("{primary} {relation} {reference}\n{matrix:.1}\n"))
        }
        _ => Err(usage.to_string()),
    }
}

/// Exactly `N` arguments after the subcommand.
fn rest<const N: usize>(args: &[String], n: usize) -> Result<[&str; N], String> {
    debug_assert_eq!(N, n);
    if args.len() != n + 1 {
        return Err(format!("expected {n} argument(s) after `{}`", args[0]));
    }
    let mut out = [""; N];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = &args[i + 1];
    }
    Ok(out)
}

fn render_show(config: &Configuration) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Image {:?} (file {:?}): {} regions, {} stored relations\n",
        config.name,
        config.file,
        config.len(),
        config.relations().len()
    ));
    for r in config.regions() {
        out.push_str(&format!(
            "  {:<16} {:<16} color={:<8} polygons={} edges={} mbb={}\n",
            r.id,
            r.name,
            r.color,
            r.region.polygon_count(),
            r.region.edge_count(),
            r.region.mbb()
        ));
    }
    for rel in config.relations() {
        out.push_str(&format!(
            "  {} {} {}\n",
            rel.primary, rel.relation, rel.reference
        ));
    }
    out
}

const HELP: &str = "cardirect — CARDIRECT command line (EDBT 2004 reproduction)

Subcommands:
  show    <config.xml>                    list regions and stored relations
  compute <config.xml> [out.xml]          compute all pairwise relations; write XML
  query   <config.xml> '<query>'          run a query, e.g.
                                          '{(a, b) | color(a) = red, a S:SW b}'
  pct     <config.xml> <primary> <ref>    relation + percentage matrix of a pair
";
