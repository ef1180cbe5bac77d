//! Entry point of the `pprl` command-line tool.

#![forbid(unsafe_code)]

use pprl_cli::args::Args;
use pprl_cli::commands;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        println!("{}", commands::help());
        return;
    }
    // `index`, `client`, and `cluster` take their own action
    // subcommand: parse the tail so the action lands in `Args::command`.
    let is_index = raw[0] == "index";
    let is_client = raw[0] == "client";
    let is_cluster = raw[0] == "cluster";
    let parse_from = if is_index || is_client || is_cluster {
        &raw[1..]
    } else {
        &raw[..]
    };
    let args = match Args::parse(
        parse_from,
        &[
            "evaluate", "compact", "json", "cluster", "list", "check", "encrypt",
        ],
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::help());
            std::process::exit(2);
        }
    };
    let result = if is_index {
        commands::index_cmd(args)
    } else if is_client {
        commands::client_cmd(args)
    } else if is_cluster {
        commands::cluster_cmd(args)
    } else {
        match args.command.as_str() {
            "generate" => commands::generate(args),
            "link" => commands::link_cmd(args),
            "dedup" => commands::dedup_cmd(args),
            "encode" => commands::encode_cmd(args),
            "multiparty" => commands::multiparty_cmd(args),
            "serve" => commands::serve_cmd(args),
            "keygen" => commands::keygen(args),
            "kernels" => commands::kernels_cmd(args),
            other => {
                eprintln!("error: unknown command `{other}`\n\n{}", commands::help());
                std::process::exit(2);
            }
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
