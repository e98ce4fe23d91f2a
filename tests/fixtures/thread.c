/* One structure, built into relocatable objects: their debug sections
   reach the names in .debug_str through relocations. */
struct Thread {
    int state;
    long tid;
    char *name;
};

struct Thread current_thread;
