# cmake -DVARSIM=<binary> "-DARGS=run --bogus 3" -DEXPECT=<regex> -P <this>
# passes iff varsim exits nonzero, printing EXPECT, before any work.

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${VARSIM}" ${argv}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "'varsim ${ARGS}' exited 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR
            "'varsim ${ARGS}' output lacks '${EXPECT}':\n${out}")
endif()
if(out MATCHES "running|comparing|measuring|executed")
    message(FATAL_ERROR
            "'varsim ${ARGS}' started work before failing:\n${out}")
endif()
