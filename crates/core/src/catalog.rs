//! The table registry of a [`Database`]: names to dense [`TableId`]s, one
//! entry per table, every table's pages on the one shared pool.

use crate::db::Database;

mod tests {
    use super::*;
    use crate::CoreError;
    use instn_storage::{ColumnType, Schema, StorageError, TableId, Value};

    fn one_column() -> Schema {
        Schema::of(&[("x", ColumnType::Int)])
    }

    #[test]
    fn create_lookup_roundtrip() {
        let mut db = Database::new();
        let id = db
            .create_table("birds", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        assert_eq!(db.table_id("birds").unwrap(), id);
        assert_eq!(db.table(id).unwrap().name(), "birds");
        assert_eq!(
            db.table(db.table_id("birds").unwrap()).unwrap().name(),
            "birds"
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::new();
        db.create_table("t", one_column()).unwrap();
        let revision = db.revision();
        assert!(matches!(
            db.create_table("t", one_column()),
            Err(CoreError::Storage(StorageError::TableExists(_)))
        ));
        assert_eq!(db.revision(), revision, "nothing committed");
        assert_eq!(db.tables.len(), 1);
    }

    #[test]
    fn missing_table_errors() {
        let db = Database::new();
        assert!(db.table_id("nope").is_err());
        assert!(db.table(TableId(9)).is_err());
        assert!(db.summaries_of(TableId(9), instn_storage::Oid(1)).is_err());
        assert!(db.instances(TableId(9)).is_empty());
    }

    #[test]
    fn tables_share_io_stats() {
        let mut db = Database::new();
        let a = db.create_table("a", one_column()).unwrap();
        let b = db.create_table("b", one_column()).unwrap();
        db.insert_tuple(a, vec![Value::Int(1)]).unwrap();
        let after_a = db.stats().snapshot().total();
        assert!(after_a > 0);
        db.insert_tuple(b, vec![Value::Int(2)]).unwrap();
        assert!(db.stats().snapshot().total() > after_a);
    }

    #[test]
    fn list_enumerates_in_creation_order() {
        let mut db = Database::new();
        db.create_table("one", one_column()).unwrap();
        db.create_table("two", one_column()).unwrap();
        let names: Vec<&str> = db.tables.iter().map(|e| e.table.name()).collect();
        assert_eq!(names, vec!["one", "two"]);
        assert_eq!(db.table_id("two").unwrap(), TableId(1));
    }
}
